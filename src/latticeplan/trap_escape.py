"""Dimension-reduced escape strategies for the traps `generate_graph` meets.

Two modes: hug the revealed obstacle boundary (single or multi robot), or
freeze the formation shape and move it rigidly (multi robot).  Both run one
restricted search over a pool of vertices, expanding with the mode's moves
until some vertex near the pool's top has a feasible, unvisited,
lower-potential neighbor; then control returns to the unrestricted
expansion loop.

Both searches give a vertex its rows by the main loop's rule,
`graph.MoveBlocks.ready`: blocks of the vertices added since the last
block, each admitting the descent ahead of a vertex that continues the
last expansion.  Wall hugging makes the main loop's moves, so it shares
the tree's `MoveBlocks` (whose rows also hold each move's end-point
clearance) through a `WallHug` that `generate_graph` owns, with every
vertex's clearance computed once; an episode's shell is a mask on those
rows.  A fixed-shape search has a `MoveBlocks` of rigid group translations
of its own, whose descent ahead is a rigid translation.  In both,
`_EscapeSet` keeps the vertices near the pool's top up to date as the pool
grows and tests only those not tested yet: it drops a move whose key is in
the tree before any kernel runs, and reads the end-point rows of the
vertices that have them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .environment import KnownEnvironment, clearances
from .geometry import robot_pairs, rows_multi_robot_feasible, rows_point_feasible
from .graph import (GenConfig, MoveBlocks, SearchGraph, band_of, group_steps, insert_admitted,
                    move_rows)

_TIE = 1e-9


@dataclass
class TrapEscapePolicy:
    """Which escape strategy to run when expansion hits a local minimizer."""

    mode: str = "none"  # none | near-obstacle | fixed-shape

    def __post_init__(self):
        if self.mode not in ("none", "near-obstacle", "fixed-shape"):
            raise ValueError(f"unknown escape mode {self.mode!r}")


class WallHug:
    """Wall hugging's state in one tree: the tree's `MoveBlocks`, built with
    clearance rows, and the clearance of every vertex, extended only for
    new vertices.  Both hold while the tree grows, as `env` is fixed."""

    def __init__(self, blocks: MoveBlocks):
        self.blocks = blocks
        self._clear = np.empty(64, dtype=float)
        self._seen = 0

    def clearances(self, g: SearchGraph, env: KnownEnvironment) -> np.ndarray:
        """`environment.clearances` of every vertex, by id."""
        if self._seen < g.count:
            if g.count > len(self._clear):
                self._clear = np.resize(self._clear, 1 << (g.count - 1).bit_length())
            self._clear[self._seen:g.count] = clearances(g.coords[self._seen:], env)
            self._seen = g.count
        return self._clear[:g.count]


def _near(g: SearchGraph, top: int, ids: np.ndarray) -> np.ndarray:
    """The vertices of the id array ids within sqrt(2) steps of vertex top."""
    gap = g._xy[ids] - g._xy[top]
    return ids[np.sqrt(np.vecdot(gap, gap)) <= sqrt(2.0) * g.step + _TIE]


def _top(g: SearchGraph, ids: np.ndarray) -> int:
    """The highest-potential vertex of the ascending id array ids; argmax
    takes the lowest id on ties."""
    return int(ids[np.argmax(g._pot[ids])])


def _first_open(g: SearchGraph, todo: np.ndarray, blocks: MoveBlocks,
                env: KnownEnvironment) -> Optional[int]:
    """The index in the id array todo of the first vertex with an open
    lower-potential move among the moves of `blocks`, or None.  An open move
    is one to an unvisited key whose end point passes `rows_point_feasible`
    (read from `blocks.open` where the vertex has rows) and, for a
    formation, `rows_multi_robot_feasible`."""
    q = move_rows(g._xy[todo], blocks.steps, g.step)
    d = q - g.target
    # A move's potential is bit-identical to distance(q, g.target).
    lower = (np.sqrt(np.vecdot(d, d)) < g._pot[todo][:, None]).tolist()
    moves = []  # (index in todo, move) of each lower-potential move to an unvisited key
    for i, (v, row) in enumerate(zip(todo.tolist(), lower)):
        key = g.keys[v]
        moves += [(i, m) for m, (ks, ok) in enumerate(zip(blocks.key_steps, row))
                  if ok and key + ks not in g.key_map]
    if not moves:
        return None
    i, m = np.array(moves).T
    ready = blocks.with_rows(todo[i])
    point = np.empty(len(moves), dtype=bool)
    point[ready] = blocks.open[todo[i[ready]], m[ready]]
    if not ready.all():
        point[~ready] = rows_point_feasible(q[i[~ready], m[~ready]], env)
    band = band_of(env)
    if band is not None and point.any():
        idx = np.flatnonzero(point)
        point[idx] = rows_multi_robot_feasible(q[i[idx], m[idx]], env, *band)
    found = i[point]
    return int(found[0]) if found.shape[0] else None


class _EscapeSet:
    """Whether some pool vertex near the pool's top has an open
    lower-potential move among the moves of `blocks`, kept up to date as the
    pool grows.  New ids are higher than the pool's, so the top changes only
    when a new vertex has a strictly higher potential; otherwise only new
    vertices can join those near it.  A vertex found with no such move joins
    `blocks.closed` and is not tested again, in this search or a later one
    with the same blocks: while `env` is fixed and `g.key_map` only grows, a
    closed move stays closed.  So each test covers only the near vertices
    not yet tested, in one pass, and closes those before the first with an
    open move, as a vertex-by-vertex walk does."""

    def __init__(self, g: SearchGraph, pool: np.ndarray, blocks: MoveBlocks,
                 env: KnownEnvironment):
        self.g, self.blocks, self.env = g, blocks, env
        self.closed = blocks.closed
        self._parts = [np.asarray(pool, dtype=int)]
        self._top: Optional[int] = None
        self._todo: List[int] = []  # the near vertices not yet tested, ascending
        if self._parts[0].shape[0]:
            self._retop(_top(g, self._parts[0]))

    @property
    def pool(self) -> np.ndarray:
        """The pool's ids, ascending."""
        if len(self._parts) > 1:
            self._parts = [np.concatenate(self._parts)]
        return self._parts[0]

    def _retop(self, top: int) -> None:
        self._top = top
        self._todo = [v for v in _near(self.g, top, self.pool).tolist() if v not in self.closed]

    def add(self, ids: List[int]) -> None:
        """Extend the pool with ids, all higher than its vertices."""
        if not ids:
            return
        g, new = self.g, np.array(ids)
        self._parts.append(new)
        top = _top(g, new)
        if self._top is None or g._pot[top] > g._pot[self._top]:
            self._retop(top)
        else:
            self._todo += _near(g, self._top, new).tolist()

    def reached(self) -> bool:
        todo = self._todo
        first = _first_open(self.g, np.array(todo), self.blocks, self.env) if todo else None
        self.closed.update(todo if first is None else todo[:first])
        self._todo = [] if first is None else todo[first:]
        return first is not None


def _restricted_search(g: SearchGraph, pool: np.ndarray, todo: np.ndarray, blocks: MoveBlocks,
                       env: KnownEnvironment, cfg: GenConfig,
                       eps: Optional[float] = None) -> Tuple[List[int], bool, bool]:
    """Expand the pool vertices of the id array todo and those the search
    adds, lowest potential first (lowest id on ties), with the moves of
    `blocks` whose end point lies within `eps` of a revealed box, if given,
    until the escape set is reached, the target is linked or nothing is
    left to expand.

    Returns the added ids and whether the search escaped or was exhausted."""
    escape_set = _EscapeSet(g, pool, blocks, env)
    if escape_set.reached():
        return [], True, False
    order = np.lexsort((todo, g._pot[todo]))
    frontier = list(zip(g._pot[todo[order]].tolist(), todo[order].tolist()))  # sorted: a heap
    added: List[int] = []
    last = None  # the vertex expanded just before
    while frontier:
        _, vid = heapq.heappop(frontier)
        blocks.ready(g, vid, last, env, cfg)
        last = vid
        new_ids = insert_admitted(g, vid, blocks.admitted(g, vid, eps), env, cfg)
        added.extend(new_ids)
        if g.target_id is not None:
            return added, False, False
        escape_set.add(new_ids)
        for i in new_ids:
            heapq.heappush(frontier, (g.potential_of(i), i))
        if escape_set.reached():
            return added, True, False
    return added, False, True


def escape_near_obstacle(g: SearchGraph, trap: int, env: KnownEnvironment,
                         cfg: GenConfig, hug: WallHug) -> List[int]:
    """Wall-hugging escape: admit only axis moves within epsilon of a revealed
    obstacle, where epsilon is taken at the trap vertex (floored at step/2).
    `hug` is the tree's state, which every episode of the tree shares."""
    clear = hug.clearances(g, env)
    eps = max(float(clear[trap]), 0.5 * g.step)
    pool = np.flatnonzero(clear <= eps)
    todo = pool[~g.expanded_of(pool)]  # the others' moves were all tried
    # An exhausted shell falls back to unrestricted expansion.
    added, escaped, relaxed = _restricted_search(g, pool, todo, hug.blocks, env, cfg, eps)
    g.escape_log.append({"mode": "near-obstacle", "trap": trap, "epsilon": eps,
                         "added": len(added), "new_ids": list(added),
                         "escaped": escaped, "fallback": relaxed})
    return added


def _components(k: int, pairs: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Connected components of the robot graph induced by active constraints,
    ordered by their lowest robot, whose id k sweeps over the pairs spread."""
    label = list(range(k))
    for _ in range(k):
        for i, j in pairs:
            label[i] = label[j] = min(label[i], label[j])
    return [[r for r in range(k) if label[r] == c] for c in sorted(set(label))]


def _shape_matches(g: SearchGraph, ref: np.ndarray,
                   pairs: Sequence[Tuple[int, int]], dim: int) -> np.ndarray:
    """Per vertex, whether every constrained robot pair keeps its offset in `ref`."""
    x = np.reshape(g.coords, (g.count, -1, dim))
    r = ref.reshape(-1, dim)
    i, j = np.reshape(np.asarray(pairs, dtype=int), (-1, 2)).T
    drift = (x[:, i] - x[:, j]) - (r[i] - r[j])
    return np.abs(drift).max(axis=(1, 2), initial=0.0) <= 1e-12


def escape_fixed_shape(g: SearchGraph, trap: int, env: KnownEnvironment,
                       cfg: GenConfig) -> List[int]:
    """Formation-preserving escape: restrict candidates to rigid translations
    of constraint-connected robot groups, every robot pair constrained at
    first; relax the constraints, last pair first, when the restricted
    frontier dies out."""
    dim = env.dim
    k = g.n // dim
    if k < 2:
        raise ValueError("fixed-shape escape requires a multi-robot configuration")
    ref = g.coords[trap]
    active = list(zip(*(a.tolist() for a in robot_pairs(k))))
    original = list(active)
    added: List[int] = []
    relaxations = 0
    while True:
        blocks = MoveBlocks(group_steps(_components(k, active), dim, g.n), g.radix,
                            first=g.count, escape=True)
        pool = np.flatnonzero(_shape_matches(g, ref, active, dim))
        new_ids, escaped, _ = _restricted_search(g, pool, pool, blocks, env, cfg)
        added.extend(new_ids)
        if relaxations == 0:
            rigid_ids = new_ids  # added before any constraint was relaxed
        if escaped or g.target_id is not None:
            break
        if not active:
            break  # fully relaxed and still stuck: unrestricted loop takes over
        active.pop()
        relaxations += 1
    g.escape_log.append({"mode": "fixed-shape", "trap": trap,
                         "added": len(added), "escaped": escaped,
                         "relaxations": relaxations,
                         "rigid_ids": rigid_ids, "constraints": original})
    return added
