"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only moves that pass all revealed constraints.

Every vertex carries one integer lattice key, its lattice coordinates k as
`sum(k[c] * R**c)` with R = 2 * max_vertices + 1.  The root's is 0; a move's
key is its parent's key plus the move's key step, that sum over its +-1 on
each moved axis, so no key is rounded from floats.  An edge moves a
coordinate by at most one, so |k[c]| stays below the vertex budget and
distinct lattice points have distinct keys.  The unexpanded vertices sit in
a heap of (potential, id), which gives the lowest potential first and the
lowest id on ties.

Moves come from one generator, `group_steps`: each group of robots steps
together by one pitch along one workspace axis; single robots give the 2n
axis moves.  One conjunction, `admit_rows`, admits a batch of moves: the
bounds and the revealed box interiors at the end point, then every robot's
segment or, for a formation, `rows_formation_feasible` (the band at the end
point and over the motion, the sampled robot-to-robot links and the
segments).  `MoveBlocks` runs it over the moves of many vertices in passes
of at most `_ADMIT_ROWS` moves and keeps every move's verdict and potential
and, for an escape, its end-point test and, in a tree that hugs walls, its
end point's clearance.  These depend only on a vertex's floats and the
environment, which is fixed while a tree grows, so expanding a vertex later
only looks its moves' keys up.  The main loop prepares every vertex
inserted since its last block.  When the vertex it pops is the root or a
child of the vertex it expanded just before, that block's last pass also
admits the greedy `descent` ahead of it, as far as the tree followed the
last one allows, and the later pops along it copy its rows instead of
preparing a block.  Wall hugging moves as the main loop does, so it expands
with the tree's own blocks, its shell a mask on the clearance rows; a
fixed-shape escape, with its own moves, prepares a vertex from before the
search alone and the vertices it added in blocks.  A target link is
`formation_segment_feasible`, one move through the same kernels.

A tree that ends with every vertex expanded and no target link (`target_id`
None) certifies that no path exists at this pitch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .environment import KnownEnvironment, clearances
from .errors import ResourceLimitError
from .geometry import (as_config, distance, formation_segment_feasible, rows_formation_feasible,
                       rows_multi_robot_feasible, rows_point_feasible, rows_segment_feasible)

_TARGET_SNAP = 1e-12
_ADMIT_ROWS = 1024  # moves per admission pass

Key = int
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
    once linked, may sit off-lattice (key None).  `radix` is the keys' base.
    """

    def __init__(self, root: np.ndarray, target: np.ndarray, step: float,
                 max_vertices: int = GenConfig.max_vertices):
        self.step = step
        self.radix = 2 * max_vertices + 1
        self.anchor = root.copy()
        self.target = target.copy()
        self.n = root.shape[0]
        self._xy = np.empty((64, self.n), dtype=float)
        self.ancestor: List[Optional[int]] = []
        self.keys: List[Optional[Key]] = []
        self.key_map: dict = {}
        self._pot = np.empty(64, dtype=float)
        self._expanded = bytearray()  # 1 once a vertex is expanded
        self._frontier: List[Tuple[float, int]] = []  # heap of (potential, id)
        self.count = 0
        self.target_id: Optional[int] = None
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
        self._expanded.append(0)
        heapq.heappush(self._frontier, (pot_value, vid))
        self.count += 1
        return vid

    # -- views -----------------------------------------------------------

    @property
    def trapped(self) -> bool:
        """Whether some expansion hit a trap."""
        return bool(self.trap_events)

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
        return bool(self._expanded[vid])

    def expanded_of(self, ids: np.ndarray) -> np.ndarray:
        """Whether each vertex of the id array ids was expanded."""
        return np.frombuffer(self._expanded, dtype=bool)[ids]

    def mark_expanded(self, vid: int):
        self._expanded[vid] = 1

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


def candidate_admissible(g: SearchGraph, from_id: int, q: np.ndarray, key: Key,
                         env: KnownEnvironment, cfg: GenConfig) -> bool:
    """`admit_rows` of the one move from vertex from_id to q, and q's
    integer lattice key unvisited.  Nothing in the program calls it; it
    stays while `perfbench/tracer.py` looks it up by name."""
    return key not in g.key_map and bool(
        admit_rows(g.coords[from_id][None], as_config(q)[None], env, cfg)[0])


def _band(env: KnownEnvironment) -> Optional[Tuple[float, float]]:
    dmin, dmax = env.truth.dmin, env.truth.dmax
    return None if dmin is None or dmax is None else (dmin, dmax)


def open_rows(q: np.ndarray, env: KnownEnvironment, point: np.ndarray) -> np.ndarray:
    """Per configuration row of q (N, n) whose `rows_point_feasible` is
    `point`, in one pass: in bounds, outside the revealed boxes and, for a
    formation, `rows_multi_robot_feasible`."""
    ok = point.copy()
    band = _band(env)
    if band is not None and ok.any():
        idx = np.flatnonzero(ok)
        ok[idx] = rows_multi_robot_feasible(q[idx], env, *band)
    return ok


def admit_rows(a: np.ndarray, q: np.ndarray, env: KnownEnvironment, cfg: GenConfig,
               point: Optional[np.ndarray] = None) -> np.ndarray:
    """Per move from row a[r] to row q[r] (N, n), in one pass: the end point
    in bounds and outside the revealed boxes (`point`, where the caller has
    it), and every robot's segment or, for a formation,
    `rows_formation_feasible` on the rows whose end point passes."""
    ok = rows_point_feasible(q, env) if point is None else point.copy()
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


def key_steps(steps: np.ndarray, radix: int) -> List[int]:
    """The lattice key step `sum(s[c] * radix**c)` of each row s of steps."""
    return [sum(d * radix**c for c, d in enumerate(s) if d) for s in steps.tolist()]


def move_rows(v: np.ndarray, steps: np.ndarray, step: float) -> np.ndarray:
    """The moves `steps` (M, n) from each configuration row of v (N, n),
    shaped (N, M, n).  A moved coordinate is v[c] +- step; the others keep
    v's floats (adding 0.0 would turn -0.0 into 0.0)."""
    q = v[:, None, :] + step * steps
    np.copyto(q, v[:, None, :], where=steps == 0)
    return q


def descent(g: SearchGraph, vid: int, count: int) -> np.ndarray:
    """Up to `count` points (N, n) of the greedy descent from vertex vid:
    each steps the coordinate farthest from the target (the lowest on ties)
    by one pitch toward it, while that gap exceeds half a pitch.  A point
    is built as `MoveBlocks.admitted` builds a move, so a vertex reached
    along the descent has exactly its floats."""
    x, t, step = g._xy[vid].tolist(), g.target.tolist(), g.step
    out: List[List[float]] = []
    while len(out) < count:
        gaps = [abs(b - a) for a, b in zip(x, t)]
        c = gaps.index(max(gaps))
        if gaps[c] <= 0.5 * step:
            break
        x = list(x)
        x[c] += (1 if t[c] > x[c] else -1) * step
        out.append(x)
    return np.array(out, dtype=float).reshape(-1, g.n)


class MoveBlocks:
    """Admission results of the moves `steps` (M, n), whose lattice key
    steps in `radix` are `key_steps`, by vertex id: `passed[v, m]` holds
    whether move m of vertex v passes `admit_rows` and `pot[v, m]` its
    potential; for an escape (`escape` or `clear`), `open[v, m]` whether its
    end point passes `rows_point_feasible` (for one robot, `open_rows`) and,
    with `clear`, `clear[v, m]` its end point's `clearances`.  The vertices
    in [first, prepared) have rows; one below `first` is prepared alone, and
    the next block begins at `prepared`.  `closed` holds the vertices an
    escape found with no open move of lower potential among `steps`, which
    no later vertex can open."""

    def __init__(self, steps: np.ndarray, radix: int, first: int = 0, escape: bool = False,
                 clear: bool = False):
        m = len(steps)
        self.steps = steps
        self.key_steps = key_steps(steps, radix)
        self.first = self.prepared = first
        self.passed = np.empty((64, m), dtype=bool)
        self.pot = np.empty((64, m), dtype=float)
        self.open = np.empty((64, m), dtype=bool) if escape or clear else None
        self.clear = np.empty((64, m), dtype=float) if clear else None
        self._tables = [a for a in (self.passed, self.pot, self.open, self.clear) if a is not None]
        self.closed: Set[int] = set()
        # Per move, its moved coordinates and their signs, to step the floats.
        self._moves = [[(c, d) for c, d in enumerate(s) if d] for s in steps.tolist()]
        # The last descent admitted ahead: its points' row index by coordinate
        # bytes, compact copies of their rows, and the pops it served.
        self._ahead: dict = {}
        self._ahead_rows: List[np.ndarray] = []
        self._followed: Optional[int] = None

    def _reserve(self, last: int) -> None:
        if last > len(self.pot):
            size = 1 << (last - 1).bit_length()
            self.passed, self.pot, self.open, self.clear = tables = [
                None if a is None else np.resize(a, (size, len(self.steps)))
                for a in (self.passed, self.pot, self.open, self.clear)]
            self._tables = [a for a in tables if a is not None]

    def prepare(self, g: SearchGraph, first: int, last: int, env: KnownEnvironment,
                cfg: GenConfig, ahead: Optional[int] = None) -> None:
        """Test the moves of the vertices [first, last) in passes of at most
        `_ADMIT_ROWS` moves, which bound the kernels' work arrays.  With
        `ahead`, a vertex id, the last pass also tests the moves of points of
        the greedy descent from that vertex, and keeps their rows for
        `recall` in place of the previous descent's.  It takes as many as
        fill the pass, but at most 2f + 2 once a descent served f pops: where
        the tree leaves each descent early, most of its points cost rows and
        save no pass."""
        m = len(self.steps)
        self._reserve(last)
        per = max(_ADMIT_ROWS // m, 1)
        reach = per if self._followed is None else 2 * self._followed + 2
        for s in range(first, last, per):
            rows = slice(s, min(s + per, last))
            v = g._xy[rows]
            b = len(v)
            if ahead is not None and rows.stop == last:
                v = np.concatenate([v, descent(g, ahead, min(per - b, reach))])
            q = move_rows(v, self.steps, g.step).reshape(-1, g.n)
            point = rows_point_feasible(q, env)
            ok = admit_rows(np.repeat(v, m, axis=0), q, env, cfg, point).reshape(-1, m)
            d = q - g.target
            pot = np.sqrt(np.vecdot(d, d)).reshape(-1, m)  # bit-identical to distance()
            found = [ok, pot]
            if self.open is not None:
                found.append(point.reshape(-1, m))
            if self.clear is not None:
                found.append(clearances(q, env).reshape(-1, m))
            for a, r in zip(self._tables, found):
                a[rows] = r[:b]
        if ahead is not None:
            self._ahead = {x.tobytes(): i for i, x in enumerate(v[b:])}
            self._ahead_rows = [r[b:].copy() for r in found]
            self._followed = 0
        self.prepared = max(self.prepared, last)

    def recall(self, g: SearchGraph, vid: int) -> bool:
        """Copy the rows of vertex vid from the last descent admitted ahead,
        if the vertex has the coordinates of one of its points: a move's
        rows depend only on the vertex's floats and on the environment,
        fixed while a tree grows."""
        i = self._ahead.get(g._xy[vid].tobytes())
        if i is None:
            return False
        self._followed += 1
        self._reserve(vid + 1)
        rows = self._ahead_rows
        self.passed[vid], self.pot[vid] = rows[0][i], rows[1][i]
        if self.open is not None:
            for a, r in zip(self._tables[2:], rows[2:]):
                a[vid] = r[i]
        return True

    def admitted(self, g: SearchGraph, vid: int, eps: Optional[float] = None) -> List[Admitted]:
        """The moves of a prepared vertex that are admitted now: passed when
        prepared, with an end-point clearance at most `eps` if given, and
        unvisited, in move order."""
        v, key, step = g._xy[vid], g.keys[vid], g.step
        passed = self.passed[vid] if eps is None else self.passed[vid] & (self.clear[vid] <= eps)
        out = []
        for moved, ks, ok, p in zip(self._moves, self.key_steps, passed.tolist(),
                                    self.pot[vid].tolist()):
            if ok and (qkey := key + ks) not in g.key_map:
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
    g = SearchGraph(start, target, cfg.step, cfg.max_vertices)
    root = g.insert(start, distance(start, target), None, 0)
    if g.potential_of(root) < _TARGET_SNAP:
        g.target_id = root
        return g
    if target_linkable(g, root, env, cfg):
        g.target_id = g.insert(g.target, 0.0, root, None)
        return g

    from . import trap_escape  # deferred: trap_escape builds on this module

    hugs = escape is not None and escape.mode == "near-obstacle"
    blocks = MoveBlocks(group_steps([[r] for r in range(g.n // env.dim)], env.dim, g.n),
                        g.radix, clear=hugs)
    hug = trap_escape.WallHug(blocks) if hugs else None
    last = None  # the vertex expanded just before; the root's ancestor is None
    while g.target_id is None:
        vid = g.argmin_unexpanded()
        if vid is None:
            return g
        if vid >= blocks.prepared and not blocks.recall(g, vid):
            # A vertex on the greedy descent is likely followed by the
            # descent ahead of it: admit that in the same pass.
            ahead = vid if g.ancestor[vid] == last else None
            blocks.prepare(g, blocks.prepared, g.count, env, cfg, ahead)
        last = vid
        base_pot = g.potential_of(vid)
        new_ids = insert_admitted(g, vid, blocks.admitted(g, vid), env, cfg)
        g.mark_expanded(vid)
        if g.target_id is not None:
            break
        improved = any(g.potential_of(i) < base_pot for i in new_ids)
        if not improved:
            g.trap_events.append(vid)
            if hugs:
                trap_escape.escape_near_obstacle(g, vid, env, cfg, hug)
            elif escape is not None and escape.mode != "none":
                trap_escape.escape_fixed_shape(g, vid, env, cfg)
    return g
