"""Output checks computed apart from the program.

Nothing here imports `latticeplan`: boxes, starts and targets come from the
benchmark's own `scenes.Input`, and the open-box point, segment and distance
tests below are written for the checks alone.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

TOL = 1e-9
# Largest |steady_rho - Gibbs density| accepted.  The solver stops when the
# time derivative of the density falls below 1e-10 per unit time.
GIBBS_TOL = 1e-8


def box_arrays(boxes) -> Tuple[np.ndarray, np.ndarray]:
    if not boxes:
        return np.zeros((0, 0)), np.zeros((0, 0))
    return (np.array([lo for lo, _ in boxes], dtype=float),
            np.array([hi for _, hi in boxes], dtype=float))


def strictly_inside(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(N,) mask: the point lies in the open interior of some box."""
    if lo.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    p = points[:, None, :]
    return np.any(np.all((lo < p) & (p < hi), axis=2), axis=1)


def crosses_interior(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """(N,) mask: some point of the closed segment a[i]-b[i] lies in the open
    interior of some box.

    Along axis j the points a + t (b - a) with lo_j < . < hi_j form an open
    interval of t (all of t, or none, when the segment is flat along j).  The
    segment meets the box iff the intersection (L, U) of these intervals is
    non-empty and overlaps [0, 1]: L < U, L < 1 and U > 0.
    """
    n = a.shape[0]
    out = np.zeros(n, dtype=bool)
    if lo.shape[0] == 0 or n == 0:
        return out
    for s in range(0, n, chunk):
        p = a[s:s + chunk, None, :]
        d = b[s:s + chunk, None, :] - p
        flat = d == 0.0
        safe = np.where(flat, 1.0, d)
        t_lo = (lo - p) / safe
        t_hi = (hi - p) / safe
        enter = np.minimum(t_lo, t_hi)
        leave = np.maximum(t_lo, t_hi)
        inside = (lo < p) & (p < hi)
        enter = np.where(flat, np.where(inside, -np.inf, np.inf), enter)
        leave = np.where(flat, np.where(inside, np.inf, -np.inf), leave)
        L = enter.max(axis=2)
        U = leave.min(axis=2)
        out[s:s + chunk] = np.any((L < U) & (L < 1.0) & (U > 0.0), axis=1)
    return out


def box_distances(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(P,) Euclidean distance from one point to each closed box."""
    gap = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return np.sqrt(np.sum(gap * gap, axis=1))


def robots(traj: np.ndarray, dim: int) -> np.ndarray:
    """(T, k, dim) per-robot positions of a (T, k*dim) trajectory."""
    return traj.reshape(traj.shape[0], -1, dim)


# -- trajectories ----------------------------------------------------------

def trajectory_problems(inp, traj: np.ndarray) -> List[str]:
    """Start to target, motion pitch, no sample or step inside a box, and for
    formations the distance band and unblocked links at every sample."""
    out = []
    if np.max(np.abs(traj[0] - inp.start)) > TOL:
        out.append("trajectory does not begin at the start")
    if np.max(np.abs(traj[-1] - inp.target)) > TOL:
        out.append("trajectory does not end at the target")
    if traj.shape[0] > 1:
        gaps = np.sqrt(np.sum(np.diff(traj, axis=0) ** 2, axis=1))
        if gaps.max() > inp.step / 10.0 + 1e-12:
            out.append(f"samples {gaps.max():.3g} apart, more than step/10")
    lo, hi = box_arrays(inp.boxes)
    pos = robots(traj, inp.dim)
    for r in range(pos.shape[1]):
        p = pos[:, r, :]
        if np.any(p < 0.0) or np.any(p > 1.0):
            out.append(f"robot {r} leaves the workspace")
        if strictly_inside(p, lo, hi).any():
            out.append(f"robot {r} has a sample inside a box")
        if crosses_interior(p[:-1], p[1:], lo, hi).any():
            out.append(f"robot {r} moves through a box")
    k = pos.shape[1]
    if k > 1:
        dmin, dmax = inp.band
        for i in range(k):
            for j in range(i + 1, k):
                d = np.sqrt(np.sum((pos[:, i] - pos[:, j]) ** 2, axis=1))
                if d.min() < dmin - TOL or d.max() > dmax + TOL:
                    out.append(f"robots {i},{j} leave the band [{dmin}, {dmax}]")
                if crosses_interior(pos[:, i], pos[:, j], lo, hi).any():
                    out.append(f"link {i}-{j} crosses a box")
    return out


def stop_problems(inp, stops: Sequence[Tuple[np.ndarray, float]]) -> List[str]:
    """Each blocked stop's clearance is its distance to one ground-truth box
    and lies in [f R - step/10, R]."""
    lo, hi = box_arrays(inp.boxes)
    R = inp.sensing_radius
    low = inp.stop_fraction * R - inp.step / 10.0
    out = []
    for point, clearance in stops:
        dists = np.concatenate([box_distances(q, lo, hi)
                                for q in robots(point[None, :], inp.dim)[0]])
        if dists.size == 0 or np.min(np.abs(dists - clearance)) > TOL:
            out.append(f"stop clearance {clearance} is no box's distance")
        if not (low - 1e-12 <= clearance <= R + 1e-12):
            out.append(f"stop clearance {clearance} outside [{low}, {R}]")
    return out


# -- lattices --------------------------------------------------------------

def lattice(inp, pitch: float):
    """Feasible points of the start-anchored lattice in the unit workspace and
    their feasible axis edges, for a single-robot input.

    Returns (keys (M, d) int, coords (M, d), edges (E, 2) node indices).
    """
    d = inp.dim
    kmin = np.ceil((0.0 - inp.start) / pitch - 1e-9).astype(int)
    kmax = np.floor((1.0 - inp.start) / pitch + 1e-9).astype(int)
    axes = [np.arange(kmin[i], kmax[i] + 1) for i in range(d)]
    keys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    coords = inp.start + pitch * keys
    lo, hi = box_arrays(inp.boxes)
    ok = (~strictly_inside(coords, lo, hi)
          & np.all(coords >= 0.0, axis=1) & np.all(coords <= 1.0, axis=1))
    keys, coords = keys[ok], coords[ok]
    index = {tuple(k): i for i, k in enumerate(keys.tolist())}
    pairs = []
    for i, k in enumerate(keys.tolist()):
        for axis in range(d):
            up = list(k)
            up[axis] += 1
            j = index.get(tuple(up))
            if j is not None:
                pairs.append((i, j))
    edges = np.array(pairs, dtype=int).reshape(-1, 2)
    if edges.shape[0]:
        clear = ~crosses_interior(coords[edges[:, 0]], coords[edges[:, 1]], lo, hi)
        edges = edges[clear]
    return keys, coords, edges


def components(m: int, edges: np.ndarray) -> np.ndarray:
    """(M,) component label of every node."""
    adj: List[List[int]] = [[] for _ in range(m)]
    for a, b in edges.tolist():
        adj[a].append(b)
        adj[b].append(a)
    label = np.full(m, -1, dtype=int)
    for s in range(m):
        if label[s] >= 0:
            continue
        label[s] = s
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if label[w] < 0:
                    label[w] = s
                    queue.append(w)
    return label


def flood_fill(inp) -> Tuple[np.ndarray, bool]:
    """Nodes of the start's lattice component, and whether any of them links
    to the target (within the connect radius, over a clear segment)."""
    keys, coords, edges = lattice(inp, inp.step)
    start = int(np.flatnonzero(np.all(keys == 0, axis=1))[0])
    label = components(keys.shape[0], edges)
    reach = coords[label == label[start]]
    near = reach[np.sqrt(np.sum((reach - inp.target) ** 2, axis=1)) <= inp.step]
    lo, hi = box_arrays(inp.boxes)
    links = ~crosses_interior(near, np.repeat(inp.target[None, :], near.shape[0], 0),
                              lo, hi)
    return reach, bool(links.any())


def gibbs(inp, coords: np.ndarray, edges: np.ndarray, beta=None):
    """Steady density of the diffusion flow from the uniform density:
    exp(-p/beta) on each lattice component, normalised there and scaled by
    the component's share of the nodes."""
    p = np.sqrt(np.sum((coords - inp.target) ** 2, axis=1))
    if beta is None:
        beta = float(p.max() - p.min()) / 10.0 or 1.0
    label = components(coords.shape[0], edges)
    w = np.exp(-(p - p.min()) / beta)
    rho = np.empty_like(w)
    m = coords.shape[0]
    for c in np.unique(label):
        mask = label == c
        rho[mask] = w[mask] / w[mask].sum() * (mask.sum() / m)
    return rho


# -- per-workload checks ---------------------------------------------------

def plan_problems(inp, status: str, traj: np.ndarray, stops,
                  escape_episodes: int) -> List[str]:
    """unknown-mazes and formation-escape: a collision-free plan to the
    target; blocked stops in the clearance band; escapes where asked for."""
    if status != "success":
        return [f"status {status}"]
    out = trajectory_problems(inp, traj)
    if inp.robots == 1:
        out += stop_problems(inp, stops)
    if inp.escape != "none" and escape_episodes < 1:
        out.append(f"escape {inp.escape} logged no episode")
    return out


def sealed_problems(inp, status: str, vertices=None) -> List[str]:
    """sealed-rooms: a no-path certificate that the flood fill confirms, and
    (when traced) a tree exactly as large as the start's component."""
    out = []
    if status != "no-feasible-path":
        out.append(f"status {status}")
    reach, linked = flood_fill(inp)
    if linked:
        out.append("flood fill reaches the target")
    if vertices is not None and vertices != reach.shape[0]:
        out.append(f"tree has {vertices} vertices, flood fill {reach.shape[0]}")
    return out


def region_problems(inp, traj: np.ndarray, contained: bool, lattice_coords: np.ndarray,
                    region_nodes: Sequence[int], steady_rho: np.ndarray) -> List[str]:
    """region-scenes: the region holds start, target and every trajectory
    sample, avoids every box, and its steady density is the Gibbs density."""
    out = []
    if not contained:
        out.append("program reports the trajectory outside the region")
    dx = inp.step
    keys, coords, edges = lattice(inp, dx)
    lkeys = np.rint((lattice_coords - inp.start) / dx).astype(int)
    mine: Dict[tuple, int] = {tuple(k): i for i, k in enumerate(keys.tolist())}
    order = [mine.get(tuple(k), -1) for k in lkeys.tolist()]
    if len(order) != len(mine) or -1 in order or len(set(order)) != len(order):
        return out + ["lattice nodes differ from the feasible grid points"]
    if np.max(np.abs(coords[order] - lattice_coords)) > TOL:
        out.append("lattice coordinates off the start-anchored grid")
    nodes = coords[np.asarray(order)[np.asarray(region_nodes, dtype=int)]]
    lo, hi = box_arrays(inp.boxes)
    for name, q in (("start", inp.start), ("target", inp.target)):
        if np.min(np.max(np.abs(nodes - q), axis=1)) > TOL:
            out.append(f"{name} node not in the region")
    if strictly_inside(nodes, lo, hi).any():
        out.append("region node inside a box")
    far = [np.min(np.max(np.abs(nodes - x), axis=1)) for x in traj]
    if max(far) > dx + TOL:
        out.append(f"trajectory sample {max(far):.3g} from the region (dx {dx})")
    want = gibbs(inp, coords, edges)[order]
    err = float(np.max(np.abs(steady_rho - want)))
    if err > GIBBS_TOL:
        out.append(f"steady_rho differs from the Gibbs density by {err:.3g}")
    return out
