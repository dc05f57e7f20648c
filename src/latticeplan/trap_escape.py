"""Dimension-reduced escape strategies for the traps `generate_graph` meets.

Two modes: hug the revealed obstacle boundary (single or multi robot), or
freeze the formation shape and move it rigidly (multi robot).  Both run one
restricted search over a pool of vertices, expanding with the mode's moves
until some vertex near the pool's top has a feasible, unvisited,
lower-potential neighbor; then control returns to the unrestricted
expansion loop.  Each search admits its moves (axis moves masked to the
obstacle shell, or rigid group translations) through a `graph.MoveBlocks`,
preparing a vertex from before the search alone and the vertices it added
in blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import sqrt
from typing import List, Sequence, Set, Tuple

import numpy as np

from .environment import KnownEnvironment, clearances, distance_to_revealed
from .geometry import robot_pairs
from .graph import (GenConfig, MoveBlocks, SearchGraph, group_steps, insert_admitted, move_rows,
                    open_rows)

_TIE = 1e-9


@dataclass
class TrapEscapePolicy:
    """Which escape strategy to run when expansion hits a local minimizer."""

    mode: str = "none"  # none | near-obstacle | fixed-shape

    def __post_init__(self):
        if self.mode not in ("none", "near-obstacle", "fixed-shape"):
            raise ValueError(f"unknown escape mode {self.mode!r}")


def _near_top(g: SearchGraph, pool: Sequence[int]) -> List[int]:
    """Pool vertices within sqrt(2) steps of the pool's top vertex, the
    highest-potential one; the pool ascends, so argmax takes the lowest id."""
    if not pool:
        return []
    x = g.coords[pool]
    gap = x - x[np.argmax(g.potentials[pool])]
    near = np.sqrt(np.vecdot(gap, gap)) <= sqrt(2.0) * g.step + _TIE
    return [pool[i] for i in np.flatnonzero(near).tolist()]


def _in_escape_set(g: SearchGraph, pool: Sequence[int], env: KnownEnvironment,
                   steps: np.ndarray, closed: Set[int]) -> bool:
    """Some pool vertex near the top has an open lower-potential move among
    `steps`.  A vertex found with none joins `closed` and is skipped from
    then on: while `env` is fixed and `g.key_map` only grows, a closed move
    stays closed.  The moves of every vertex not yet closed are tested in
    one pass; the vertices before the first one with an open move are
    closed, as a vertex-by-vertex walk closes them."""
    todo = [v for v in _near_top(g, pool) if v not in closed]
    if todo:
        q = move_rows(g.coords[todo], steps, g.step).reshape(-1, g.n)
        keys = (np.array([g.keys[v] for v in todo])[:, None, :] + steps).reshape(-1, g.n)
        owner = np.repeat(np.arange(len(todo)), len(steps))
        d = q - g.target
        # A move's potential is bit-identical to distance(q, g.target).
        good = np.sqrt(np.vecdot(d, d)) < g.potentials[todo][owner]
        good &= [tuple(k) not in g.key_map for k in keys.tolist()]
        idx = np.flatnonzero(good)
        good[idx] = open_rows(q[idx], env)
        found = owner[good]
        if found.shape[0]:
            closed.update(todo[:found[0]])
            return True
    closed.update(todo)
    return False


def _restricted_search(g: SearchGraph, pool: List[int], done: Set[int], blocks: MoveBlocks,
                       env: KnownEnvironment, cfg: GenConfig) -> Tuple[List[int], bool, bool]:
    """Expand the lowest-potential pool vertex not yet `done` (lowest id on
    ties) with the moves of `blocks`, adding what they admit to the pool,
    until the escape set is reached, the target is linked or the pool is
    exhausted.

    Returns the added ids and whether the search escaped or was exhausted."""
    added: List[int] = []
    start = g.count  # the search adds the ids from here on
    frontier = [(g.potential_of(v), v) for v in pool if v not in done]
    heapq.heapify(frontier)
    closed: Set[int] = set()
    while not _in_escape_set(g, pool, env, blocks.steps, closed):
        if not frontier:
            return added, False, True
        _, vid = heapq.heappop(frontier)
        if vid < start:
            blocks.prepare(g, vid, vid + 1, env, cfg)
        elif vid >= blocks.prepared:
            blocks.prepare(g, max(blocks.prepared, start), g.count, env, cfg)
        new_ids = insert_admitted(g, vid, blocks.admitted(g, vid), env, cfg)
        pool.extend(new_ids)
        added.extend(new_ids)
        if g.target_id is not None:
            return added, False, False
        for i in new_ids:
            heapq.heappush(frontier, (g.potential_of(i), i))
    return added, True, False


def escape_near_obstacle(g: SearchGraph, trap: int, env: KnownEnvironment,
                         cfg: GenConfig) -> List[int]:
    """Wall-hugging escape: admit only axis moves within epsilon of a revealed
    obstacle, where epsilon is taken at the trap vertex (floored at step/2)."""
    eps = max(distance_to_revealed(g.coords[trap], env), 0.5 * g.step)
    pool = np.flatnonzero(clearances(g.coords, env) <= eps).tolist()
    done = {v for v in pool if g.is_expanded(v)}  # their moves were all tried
    steps = group_steps([[r] for r in range(g.n // env.dim)], env.dim, g.n)
    blocks = MoveBlocks(steps, keep=lambda q: clearances(q, env) <= eps)
    # An exhausted shell falls back to unrestricted expansion.
    added, escaped, relaxed = _restricted_search(g, pool, done, blocks, env, cfg)
    g.escape_log.append({"mode": "near-obstacle", "trap": trap, "epsilon": eps,
                         "added": len(added), "new_ids": list(added),
                         "escaped": escaped, "fallback": relaxed})
    return added


def _components(k: int, pairs: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Connected components of the robot graph induced by active constraints."""
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    comps: dict = {}
    for r in range(k):
        comps.setdefault(find(r), []).append(r)
    return [comps[r] for r in sorted(comps)]


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
        blocks = MoveBlocks(group_steps(_components(k, active), dim, g.n))
        pool = np.flatnonzero(_shape_matches(g, ref, active, dim)).tolist()
        new_ids, escaped, _ = _restricted_search(g, pool, set(), blocks, env, cfg)
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
