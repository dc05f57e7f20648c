"""Local-trap detection and dimension-reduced escape strategies.

Two modes: hug the revealed obstacle boundary (single or multi robot), or
freeze the formation shape and move it rigidly (multi robot).  Either way,
restricted expansion runs until some vertex near the shell top has a
feasible, unvisited, lower-potential neighbor, then control returns to the
unrestricted expansion loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .environment import KnownEnvironment, distance_to_revealed
from .geometry import (PotentialField, box_distances, distance,
                       multi_robot_feasible, point_feasible)
from .graph import (GenConfig, SearchGraph, axis_candidates, insert_candidates,
                    lattice_key, target_linkable)

_TIE = 1e-9


@dataclass
class TrapEscapePolicy:
    """Which escape strategy to run when expansion hits a local minimizer."""

    mode: str = "none"  # none | near-obstacle | fixed-shape
    shape_constraints: Optional[List[Tuple[int, int]]] = None  # robot index pairs
    epsilon_floor: float = 0.5  # floor on epsilon, in units of the lattice step

    def __post_init__(self):
        if self.mode not in ("none", "near-obstacle", "fixed-shape"):
            raise ValueError(f"unknown escape mode {self.mode!r}")


def _candidate_open(g: SearchGraph, q: np.ndarray, env: KnownEnvironment) -> bool:
    """Point-level openness: unvisited, in-bounds, outside revealed obstacles."""
    if lattice_key(q, g) in g.key_map:
        return False
    if not point_feasible(q, env):
        return False
    dmin, dmax = env.truth.dmin, env.truth.dmax
    if dmin is not None and dmax is not None:
        if not multi_robot_feasible(q, env, dmin, dmax):
            return False
    return True


def detect_local_min(g: SearchGraph, vid: int, env: KnownEnvironment,
                     cfg: GenConfig) -> bool:
    """True iff no feasible, unvisited, lower-potential neighbor of vid exists.

    A vertex from which the target can be linked is never a local minimizer.
    """
    if target_linkable(g, vid, env, cfg):
        return False
    p_v = g.potential_of(vid)
    pot = PotentialField(target=g.target)
    for q in axis_candidates(g, vid):
        if _candidate_open(g, q, env) and pot.value(q) < p_v:
            return False
    return True


def _in_escape_set(g: SearchGraph, pool: Sequence[int], env: KnownEnvironment,
                   moves_of) -> bool:
    """Some pool vertex near the shell top has an open lower-potential move."""
    if not pool:
        return False
    pot = PotentialField(target=g.target)
    y = max(pool, key=lambda v: (g.potential_of(v), -v))
    radius = sqrt(2.0) * g.step + _TIE
    for x in pool:
        if distance(g.coords[x], g.coords[y]) > radius:
            continue
        p_x = g.potential_of(x)
        for q in moves_of(x):
            if pot.value(q) < p_x and _candidate_open(g, q, env):
                return True
    return False


def _clearances(configs, env: KnownEnvironment) -> np.ndarray:
    """`distance_to_revealed` of each configuration in `configs`, in one call."""
    pos = np.reshape(configs, (len(configs), -1, env.dim))
    return box_distances(pos, env.lo, env.hi).min(axis=(1, 2), initial=np.inf)


def escape_near_obstacle(g: SearchGraph, trap: int, env: KnownEnvironment,
                         cfg: GenConfig) -> List[int]:
    """Wall-hugging escape: admit only candidates within epsilon of a revealed
    obstacle, where epsilon is taken at the trap vertex (floored at step/2)."""
    pot = PotentialField(target=g.target)
    eps = max(distance_to_revealed(g.coords[trap], env), 0.5 * g.step)
    pool = np.flatnonzero(_clearances(g.coords, env) <= eps).tolist()
    done = {v for v in pool if g.is_expanded(v)}  # their candidates were all tried
    added: List[int] = []
    relaxed = False

    def moves(v):
        return axis_candidates(g, v)

    escaped = _in_escape_set(g, pool, env, moves)
    while not escaped:
        frontier = [v for v in pool if v not in done]
        if not frontier:
            relaxed = True  # exhausted: fall back to unrestricted expansion
            break
        vid = min(frontier, key=lambda v: (g.potential_of(v), v))
        cands = axis_candidates(g, vid)
        cands = [q for q, d in zip(cands, _clearances(cands, env)) if d <= eps]
        new_ids = insert_candidates(g, vid, cands, env, cfg, pot)
        done.add(vid)
        pool.extend(new_ids)
        added.extend(new_ids)
        if g.target_id is not None:
            break
        escaped = _in_escape_set(g, pool, env, moves)
    g.escape_log.append({"mode": "near-obstacle", "trap": trap, "epsilon": eps,
                         "added": len(added), "new_ids": list(added),
                         "escaped": escaped, "fallback": relaxed})
    return added


def _all_pairs(k: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


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


def _group_moves(g: SearchGraph, vid: int, comps: Sequence[Sequence[int]],
                 dim: int) -> List[np.ndarray]:
    """Translate one rigid group by one lattice step per workspace axis."""
    v = g.coords[vid]
    out = []
    for comp in comps:
        for axis in range(dim):
            for sign in (1.0, -1.0):
                q = v.copy()
                for r in comp:
                    q[r * dim + axis] += sign * g.step
                out.append(q)
    return out


def _shape_matches(g: SearchGraph, vid: int, ref: np.ndarray,
                   pairs: Sequence[Tuple[int, int]], dim: int) -> bool:
    v = g.coords[vid]
    for i, j in pairs:
        dv = v[i * dim:(i + 1) * dim] - v[j * dim:(j + 1) * dim]
        dr = ref[i * dim:(i + 1) * dim] - ref[j * dim:(j + 1) * dim]
        if np.max(np.abs(dv - dr)) > 1e-12:
            return False
    return True


def escape_fixed_shape(g: SearchGraph, trap: int, env: KnownEnvironment,
                       cfg: GenConfig, policy: TrapEscapePolicy) -> List[int]:
    """Formation-preserving escape: restrict candidates to rigid translations
    of constraint-connected robot groups; relax constraints most-recent-first
    when the restricted frontier dies out."""
    dim = env.dim
    k = g.n // dim
    if k < 2:
        raise ValueError("fixed-shape escape requires a multi-robot configuration")
    pot = PotentialField(target=g.target)
    ref = g.coords[trap]
    active = list(policy.shape_constraints) if policy.shape_constraints else _all_pairs(k)
    original = list(active)
    added: List[int] = []
    rigid_ids: List[int] = []  # ids added before any constraint was relaxed
    relaxations = 0
    escaped = False

    while True:
        comps = _components(k, active)

        def moves(v):
            return _group_moves(g, v, comps, dim)

        pool = [v for v in range(g.count)
                if _shape_matches(g, v, ref, active, dim)]
        done: set = set()
        escaped = _in_escape_set(g, pool, env, moves)
        while not escaped:
            frontier = [v for v in pool if v not in done]
            if not frontier:
                break
            vid = min(frontier, key=lambda v: (g.potential_of(v), v))
            new_ids = insert_candidates(g, vid, moves(vid), env, cfg, pot)
            done.add(vid)
            pool.extend(new_ids)
            added.extend(new_ids)
            if relaxations == 0:
                rigid_ids.extend(new_ids)
            if g.target_id is not None:
                break
            escaped = _in_escape_set(g, pool, env, moves)
        if escaped or g.target_id is not None:
            break
        if not active:
            break  # fully relaxed and still stuck: unrestricted loop takes over
        active.pop()  # remove the most recently added constraint
        relaxations += 1
    g.escape_log.append({"mode": "fixed-shape", "trap": trap,
                         "added": len(added), "escaped": escaped,
                         "relaxations": relaxations,
                         "rigid_ids": rigid_ids, "constraints": original})
    return added
