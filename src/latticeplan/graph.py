"""Lattice-tree generation: grow a rooted tree from the current configuration
toward the target, expanding the lowest-potential vertex first and admitting
only moves that pass all revealed constraints.

Every vertex carries one integer lattice key, its lattice coordinates k as
`sum(k[c] * R**c)` with R = 2 * max_vertices + 1.  The root's is 0; a move's
key is its parent's key plus the move's key step, so no key is rounded from
floats.  An edge moves a coordinate by at most one, so |k[c]| stays below
the vertex budget and distinct lattice points have distinct keys.  The
unexpanded vertices sit in a heap of (potential, id): the lowest potential
first, the lowest id on ties.

Moves come from one generator, `group_steps`: each group of robots steps
together by one pitch along one workspace axis; single robots give the 2n
axis moves.  One conjunction, `admit_rows`, admits a batch of moves: the
bounds and the revealed box interiors at the end point, then every robot's
segment or, for a formation, `rows_formation_feasible`.  `MoveBlocks` runs
it over the moves of many vertices in passes of at most `_ADMIT_ROWS` moves
and keeps each move's rows: its verdict, potential and, for an escape, its
end-point test and clearance.  Rows depend only on a vertex's floats and
the environment, fixed while a tree grows, so expanding a vertex later only
looks its moves' keys up.  One rule, `MoveBlocks.ready`, gives a vertex its
rows, in the main loop and in both escapes: a block prepares every vertex
inserted since the last block and, when the popped vertex is a child of the
vertex expanded just before, also admits the greedy `descent` ahead of it,
whose later pops recall their rows instead of preparing a block.  A target
link is `formation_segment_feasible`, one move through the same kernels.

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


def band_of(env: KnownEnvironment) -> Optional[Tuple[float, float]]:
    """The formation band (dmin, dmax), or None for robots without one."""
    dmin, dmax = env.truth.dmin, env.truth.dmax
    return None if dmin is None or dmax is None else (dmin, dmax)


def admit_rows(a: np.ndarray, q: np.ndarray, env: KnownEnvironment, cfg: GenConfig,
               point: Optional[np.ndarray] = None) -> np.ndarray:
    """Per move from row a[r] to row q[r] (N, n), in one pass: the end point
    in bounds and outside the revealed boxes (`point`, where the caller has
    it), and every robot's segment or, for a formation,
    `rows_formation_feasible` on the rows whose end point passes."""
    ok = rows_point_feasible(q, env) if point is None else point.copy()
    band = band_of(env)
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


def descent(g: SearchGraph, vid: int, groups: Sequence[Sequence[int]],
            count: int) -> np.ndarray:
    """Up to `count` points (N, n) of the greedy descent from vertex vid
    over `groups`, the moved coordinates of each positive `group_steps` row:
    each point steps toward the target the group whose summed gap exceeds
    half a pitch per coordinate by the most (the first on ties), the move
    that lowers the potential most, until none does; singleton groups step
    the coordinate farthest from the target.  Points are built as
    `MoveBlocks.admitted` builds a move, to the same floats."""
    x, t, step = g._xy[vid].tolist(), g.target.tolist(), g.step
    # Each group's signed summed gap and its excess; a step changes one group's.
    gaps = [sum(t[c] - x[c] for c in group) for group in groups]
    halves = [0.5 * step * len(group) for group in groups]
    excess = [abs(s) - h for s, h in zip(gaps, halves)]
    out: List[List[float]] = []
    while len(out) < count:
        i = excess.index(max(excess))
        if excess[i] <= 0.0:
            break
        sign = 1 if gaps[i] > 0.0 else -1
        x = list(x)
        for c in groups[i]:
            x[c] += sign * step
        gaps[i] = s = sum(t[c] - x[c] for c in groups[i])
        excess[i] = abs(s) - halves[i]
        out.append(x)
    return np.array(out, dtype=float).reshape(-1, g.n)


class MoveBlocks:
    """Admission results of the moves `steps` (M, n), whose lattice key
    steps in `radix` are `key_steps`, by vertex id: `passed[v, m]` holds
    whether move m of vertex v passes `admit_rows` and `pot[v, m]` its
    potential; for an escape (`escape` or `clear`), `open[v, m]` whether its
    end point passes `rows_point_feasible` and, with `clear`, `clear[v, m]`
    its end point's `clearances`.  `ready` is the one rule that gives a
    vertex its rows, and `with_rows` tells which vertices have them.
    `closed` holds the vertices an escape found with no open move of lower
    potential among `steps`, which no later vertex can open."""

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
        # The coordinate groups the moves translate, for the descent ahead.
        self._groups = [[c for c, _ in moved] for moved in self._moves if moved[0][1] > 0]
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
        `ahead`, a vertex id, the last pass also tests, and keeps for
        `recall`, the moves of the descent from it: as many points as fill
        the pass, at most 2f + 2 once the last descent served f pops."""
        m = len(self.steps)
        self._reserve(last)
        per = max(_ADMIT_ROWS // m, 1)
        reach = per if self._followed is None else 2 * self._followed + 2
        for s in range(first, last, per):
            rows = slice(s, min(s + per, last))
            v = g._xy[rows]
            b = len(v)
            if ahead is not None and rows.stop == last:
                v = np.concatenate([v, descent(g, ahead, self._groups, min(per - b, reach))])
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

    def ready(self, g: SearchGraph, vid: int, last: Optional[int], env: KnownEnvironment,
              cfg: GenConfig) -> None:
        """Give vertex vid its rows: alone if it is older than these blocks
        (below `first`), else from the last descent admitted ahead, else in
        a block of every vertex from `prepared` on, which, when vid is a
        child of `last`, the vertex expanded just before, also admits the
        descent ahead of vid.  Vertices in [first, prepared) have rows."""
        if vid < self.first:
            self.prepare(g, vid, vid + 1, env, cfg)
        elif vid >= self.prepared and not self.recall(g, vid):
            self.prepare(g, self.prepared, g.count, env, cfg,
                         vid if g.ancestor[vid] == last else None)

    def with_rows(self, ids: np.ndarray) -> np.ndarray:
        """Whether each vertex of the id array ids has rows from a block."""
        return (ids >= self.first) & (ids < self.prepared)

    def recall(self, g: SearchGraph, vid: int) -> bool:
        """Copy the rows of vertex vid from the last descent admitted ahead,
        if the vertex has the floats of one of its points."""
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
        blocks.ready(g, vid, last, env, cfg)
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
