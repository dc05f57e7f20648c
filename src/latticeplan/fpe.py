"""Upwind finite-volume solver for the lattice gradient/diffusion flow and
the alternating construction of the bounded search region.

The density evolves by explicit Euler steps under an adaptive CFL bound;
mass is conserved edge-wise and the free energy is a Lyapunov function.
The region alternates greedy descent sweeps (diffusion strength zero) with
Gibbs-layer growth (positive diffusion) until the target node is claimed.
Both come from the limits of the flow in closed form: a descent sweep is the
set of nodes reachable over descent edges, and the diffusion limit is the
Gibbs density on each lattice component.  The solver stays as the oracle the
tests compare them with.  `contains_path` tests trajectory samples against
the region's covered boxes in numpy passes; a region holds only its claimed
nodes, and `region_dump` marks them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import CflViolationError, RegionError
from .geometry import as_config, rows_point_feasible, rows_segment_feasible

_RHO_FLOOR = 1e-300  # guards log() only; masses themselves are never clipped
_CONTAIN_TOL = 1e-9  # slack on the half-width of a covered box
_CONTAIN_BLOCK = 512  # samples per containment pass: 3**n * n keys each


@dataclass(eq=False)
class Lattice:
    """Feasible grid points of one pitch with axis adjacency and potentials."""

    coords: np.ndarray          # (M, n)
    dx: float
    anchor: np.ndarray
    p: np.ndarray               # (M,) potential per node
    edges: np.ndarray           # (E, 2) node index pairs, j < k not required
    neighbors: List[List[int]]  # per node, adjacent node indices
    key_map: Dict[Tuple[int, ...], int]

    @staticmethod
    def build(env: KnownEnvironment, anchor, dx: float, target) -> "Lattice":
        anchor = as_config(anchor)
        target = as_config(target)
        n = anchor.shape[0]
        if n > 3:
            raise ValueError(
                f"lattice solver is a 2D/3D verification tool; got n = {n} "
                "(the planner itself has no such limit)")
        lo = np.tile(env.bounds_lo, n // env.dim)
        hi = np.tile(env.bounds_hi, n // env.dim)
        kmin = np.ceil((lo - anchor) / dx - 1e-9).astype(int)
        kmax = np.floor((hi - anchor) / dx + 1e-9).astype(int)
        ranges = [range(kmin[i], kmax[i] + 1) for i in range(n)]
        shape = tuple(len(r) for r in ranges)
        grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
        x = anchor + dx * grid
        ok = rows_point_feasible(x, env)
        coords_arr = x[ok]
        key_map: Dict[Tuple[int, ...], int] = {
            key: i for i, key in enumerate(map(tuple, grid[ok].tolist()))}
        # Per grid point and axis, the node one step up that axis (-1: none);
        # the nonzero entries of its node rows come out in (node, axis) order.
        node = np.full(shape, -1)
        node.flat[np.flatnonzero(ok)] = np.arange(coords_arr.shape[0])
        up = np.full(shape + (n,), -1)
        for axis in range(n):
            lead = (slice(None),) * axis
            up[lead + (slice(None, -1), Ellipsis, axis)] = node[lead + (slice(1, None),)]
        up = up.reshape(-1, n)[ok]
        j, axes = np.nonzero(up >= 0)
        nbr = up[j, axes]
        free = rows_segment_feasible(coords_arr[j], coords_arr[nbr], env)
        edges_arr = np.stack([j[free], nbr[free]], axis=1)
        neighbors: List[List[int]] = [[] for _ in range(coords_arr.shape[0])]
        for a, b in edges_arr.tolist():
            neighbors[a].append(b)
            neighbors[b].append(a)
        d = coords_arr - target
        p = np.sqrt(np.vecdot(d, d))  # each node's distance to the target
        return Lattice(coords=coords_arr, dx=dx, anchor=anchor, p=p,
                       edges=edges_arr, neighbors=[sorted(ns) for ns in neighbors],
                       key_map=key_map)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def node_at(self, x) -> int:
        """Index of the lattice node at configuration x (must be on-grid)."""
        key = tuple(int(v) for v in np.rint((as_config(x) - self.anchor) / self.dx))
        idx = self.key_map.get(key)
        if idx is None or float(np.max(np.abs(self.coords[idx] - x))) > 0.25 * self.dx:
            raise ValueError(f"configuration {x} is not a lattice node")
        return idx

    @cached_property
    def descent_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sources and ends of the edges `gradient_weights` marks, each
        oriented from higher to lower potential."""
        ej, ek = self.edges[gradient_weights(self) > 0.0].T
        downhill = self.p[ej] > self.p[ek]
        return np.where(downhill, ej, ek), np.where(downhill, ek, ej)

    def component_of(self, start: int) -> Set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in self.neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def component_labels(self) -> np.ndarray:
        """Per node, the index of its connected component (in order of each
        component's lowest node)."""
        labels = np.full(self.size, -1)
        count = 0
        for i in range(self.size):
            if labels[i] < 0:
                labels[list(self.component_of(i))] = count
                count += 1
        return labels


@dataclass
class DensityField:
    rho: np.ndarray
    beta: float

    @staticmethod
    def delta(lat: Lattice, node: int, beta: float = 0.0) -> "DensityField":
        rho = np.zeros(lat.size)
        rho[node] = 1.0
        return DensityField(rho=rho, beta=beta)

    @staticmethod
    def uniform(lat: Lattice, beta: float) -> "DensityField":
        return DensityField(rho=np.full(lat.size, 1.0 / lat.size), beta=beta)


def diffusion_weights(lat: Lattice) -> np.ndarray:
    """Weight one on every lattice edge."""
    return np.ones(lat.edges.shape[0])


def gradient_weights(lat: Lattice) -> np.ndarray:
    """0/1 weight per lattice edge: for each node, mark the edge(s) toward the
    strictly lower-potential neighbor of largest potential drop; exact ties
    all carry weight one.

    The potential p is the distance to the target t.  A step of sign s along
    axis i gives |b - t|^2 = |a - t|^2 - 2 s dx (a_i - t_i) + dx^2, so the
    largest drop p[a] - p[b] is the step of largest inner product with the
    gradient of p at a."""
    e = lat.edges.shape[0]
    # Every edge in both orientations, as a step from node a to neighbor b.
    a = np.concatenate([lat.edges[:, 0], lat.edges[:, 1]])
    b = np.concatenate([lat.edges[:, 1], lat.edges[:, 0]])
    lower = lat.p[b] < lat.p[a]
    vals = np.where(lower, lat.p[a] - lat.p[b], -np.inf)
    best = np.full(lat.size, -np.inf)
    np.maximum.at(best, a, vals)
    mark = lower & (vals >= best[a] - 1e-12)
    return (mark[:e] | mark[e:]).astype(float)


def _f_vector(f: DensityField, lat: Lattice) -> np.ndarray:
    """Variation of the free energy per node: p + beta (log rho + 1)."""
    if f.beta == 0.0:
        return lat.p
    return lat.p + f.beta * (np.log(np.maximum(f.rho, _RHO_FLOOR)) + 1.0)


def free_energy(f: DensityField, lat: Lattice) -> float:
    """Potential energy plus beta-weighted entropy; zero mass contributes zero."""
    e = float(np.dot(lat.p, f.rho))
    if f.beta == 0.0:
        return e
    mask = f.rho > 0.0
    return e + f.beta * float(np.sum(f.rho[mask] * np.log(f.rho[mask])))


class _Upwind:
    """The work `cfl_dt` and `fpe_step` share on one lattice: the per-edge
    coefficients of flow j -> k and k -> j at a density, and the CFL bound b1
    of the largest node outflow.  They depend on the density only through the
    entropy term, so at beta = 0 one instance serves a whole evolution."""

    def __init__(self, f: DensityField, lat: Lattice, w: np.ndarray):
        self.lat, (self.ej, self.ek) = lat, lat.edges.T.copy()
        F = _f_vector(f, lat)
        dF = F[self.ej] - F[self.ek]
        self.pos = np.maximum(dF, 0.0) * w   # coefficient of flow j -> k
        self.neg = np.maximum(-dF, 0.0) * w  # coefficient of flow k -> j
        out_coef = self._per_node(self.ej, self.pos) + self._per_node(self.ek, self.neg)
        self.b1 = np.inf if out_coef.max() <= 0.0 else 1.0 / out_coef.max()

    def _per_node(self, ends: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.bincount(ends, weights=x, minlength=self.lat.size)

    def flows(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mass per unit step leaving each edge's j end and its k end."""
        return self.pos * rho[self.ej], self.neg * rho[self.ek]

    def dt(self, rho: np.ndarray, fwd: np.ndarray, back: np.ndarray,
           safety: float) -> float:
        in_flux = self._per_node(self.ek, fwd) + self._per_node(self.ej, back)
        active = in_flux > 0.0
        b2 = np.inf
        if active.any():
            with np.errstate(over="ignore", divide="ignore"):
                b2 = float(((1.0 - rho[active]) / in_flux[active]).min())
        raw = min(self.b1, b2)
        scale = 1.0 if not np.isfinite(raw) else min(safety * raw, 1.0)
        return scale * self.lat.dx * self.lat.dx

    def advance(self, f: DensityField, fwd: np.ndarray, back: np.ndarray,
                dt: float) -> DensityField:
        t = (fwd - back) * (dt / (self.lat.dx * self.lat.dx))  # net transfer j -> k
        rho = f.rho + (self._per_node(self.ek, t) - self._per_node(self.ej, t))
        if rho.min() < -1e-14:
            raise CflViolationError(
                f"negative mass {rho.min():.3e} detected: step {dt:.3e} violates the CFL bound")
        if rho.max() > 1.0 + 1e-12:
            raise CflViolationError(
                f"mass {rho.max():.6f} exceeded 1: step {dt:.3e} violates the CFL bound")
        return DensityField(rho=rho, beta=f.beta)


def cfl_dt(f: DensityField, lat: Lattice, w: np.ndarray,
           safety: float = 0.9) -> float:
    """Largest stable explicit step (scaled by the safety factor), capped at
    dx^2 when both stability bounds are vacuous."""
    up = _Upwind(f, lat, w)
    return up.dt(f.rho, *up.flows(f.rho), safety)


def fpe_step(f: DensityField, lat: Lattice, w: np.ndarray,
             dt: float) -> DensityField:
    """One explicit Euler step of the upwind scheme; conserves mass edge-wise."""
    up = _Upwind(f, lat, w)
    return up.advance(f, *up.flows(f.rho), dt)


@dataclass
class EvolveResult:
    field: DensityField
    converged: bool
    iterations: int
    residual: float
    max_mass_error: float
    max_energy_increase: float


def evolve_to_steady(f: DensityField, lat: Lattice, w: np.ndarray,
                     tol: float = 1e-10, max_iters: int = 10 ** 6,
                     safety: float = 0.9) -> EvolveResult:
    """Iterate explicit steps with adaptive dt until the time derivative
    drops below tol in max norm.

    The step starts at the CFL bound and is halved whenever a trial step
    would raise the free energy (the explicit scheme turns stiff near the
    steady state when the entropy term dominates); it recovers by doubling
    after a run of accepted steps.
    """
    mass_err = 0.0
    energy_inc = 0.0
    fe = free_energy(f, lat)
    residual = np.inf
    shrink = 1.0
    streak = 0
    it = 0
    up = _Upwind(f, lat, w)
    fwd, back = up.flows(f.rho)  # shared by the CFL step and every retry at f
    cfl = up.dt(f.rho, fwd, back, safety)
    for it in range(1, max_iters + 1):
        dt = shrink * cfl
        nxt = up.advance(f, fwd, back, dt)
        fe_next = free_energy(nxt, lat)
        if fe_next > fe + 1e-15 and shrink > 1e-9:
            shrink *= 0.5
            streak = 0
            continue  # retry the step at a gentler pace
        residual = float(np.max(np.abs(nxt.rho - f.rho))) / dt
        mass_err = max(mass_err, abs(float(nxt.rho.sum()) - 1.0))
        energy_inc = max(energy_inc, fe_next - fe)
        fe = fe_next
        f = nxt
        streak += 1
        if shrink < 1.0 and streak >= 50:
            shrink = min(1.0, shrink * 2.0)
            streak = 0
        if residual < tol:
            return EvolveResult(field=f, converged=True, iterations=it,
                                residual=residual, max_mass_error=mass_err,
                                max_energy_increase=energy_inc)
        if f.beta != 0.0:
            up = _Upwind(f, lat, w)
        fwd, back = up.flows(f.rho)
        cfl = up.dt(f.rho, fwd, back, safety)
    return EvolveResult(field=f, converged=False, iterations=it,
                        residual=residual, max_mass_error=mass_err,
                        max_energy_increase=energy_inc)


def gibbs_steady(lat: Lattice, beta: float) -> np.ndarray:
    """Steady state of the diffusion flow from the uniform density, in closed
    form: exp(-(p - min p)/beta) on each lattice component, normalised there
    and scaled by the component's share of the nodes.

    Mass never crosses between components, and on each one this density
    minimises the free energy that the scheme dissipates (Jordan, Kinderlehrer
    and Otto, SIAM J. Math. Anal. 1998).  The minimum is taken per component,
    so no component underflows to zero mass.
    """
    if beta <= 0.0:
        raise ValueError("the Gibbs density requires beta > 0")
    labels = lat.component_labels()
    count = int(labels.max()) + 1
    low = np.full(count, np.inf)
    np.minimum.at(low, labels, lat.p)
    w = np.exp(-(lat.p - low[labels]) / beta)
    total = np.bincount(labels, weights=w, minlength=count)
    share = np.bincount(labels, minlength=count) / lat.size
    return w / total[labels] * share[labels]


@lru_cache(maxsize=None)
def _cell_offsets(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The 3**n lattice key offsets around a cell corner, each axis in the
    order 0, 1, -1."""
    return tuple(itertools.product((0, 1, -1), repeat=n))


@dataclass(eq=False)
class Region:
    """Claimed lattice nodes plus the closed boxes of half-width `half_width`
    they cover."""

    nodes: Tuple[int, ...]
    lattice: Lattice
    half_width: float
    steady_rho: Optional[np.ndarray] = None


def contains_path(region: Region, trajectory: Sequence) -> bool:
    """True iff every trajectory sample lies inside some covered box, up to
    _CONTAIN_TOL.  A sample can only sit in the box of a claimed node at one
    of the 3**n lattice keys around its cell corner; up to _CONTAIN_BLOCK
    samples are tested per numpy pass, with the claimed nodes laid out on a
    dense grid of their lattice keys."""
    if len(trajectory) == 0:
        return True
    if not region.nodes:
        return False
    x = np.asarray(trajectory, dtype=float).reshape(len(trajectory), -1)
    lat = region.lattice
    nodes = np.asarray(region.nodes, dtype=int)
    # A built lattice's node sits at anchor + dx * key, so rounding recovers
    # the key `lat.key_map` holds it under.
    keys = np.rint((lat.coords[nodes] - lat.anchor) / lat.dx).astype(int)
    kmin = keys.min(axis=0)
    grid = np.full(keys.max(axis=0) - kmin + 1, -1)
    grid[tuple((keys - kmin).T)] = nodes
    offsets = np.array(_cell_offsets(x.shape[1])) - kmin
    for first in range(0, x.shape[0], _CONTAIN_BLOCK):
        xs = x[first:first + _CONTAIN_BLOCK]
        base = np.floor((xs - lat.anchor) / lat.dx).astype(int)
        cell = base[:, None, :] + offsets  # (M, 3**n, n) grid indices
        inside = ((cell >= 0) & (cell < grid.shape)).all(axis=-1)
        idx = grid[tuple(np.clip(cell, 0, np.array(grid.shape) - 1).transpose(2, 0, 1))]
        idx = np.where(inside, idx, -1)  # the claimed node at each cell corner, or -1
        gap = np.abs(lat.coords[idx] - xs[:, None, :]).max(axis=-1)
        if not ((idx >= 0) & (gap <= region.half_width + _CONTAIN_TOL)).any(axis=1).all():
            return False
    return True


def gradient_region(start_node: int, lat: Lattice) -> Set[int]:
    """Descent sweep: the nodes reachable from the start node over the edges
    that `gradient_weights` marks, each followed from higher to lower
    potential.  These are exactly the nodes whose density ever increases
    when a unit mass at the start evolves at beta = 0 under those weights."""
    src, dst = lat.descent_edges
    reached = np.zeros(lat.size, dtype=bool)
    reached[start_node] = True
    while True:
        step = reached[src] & ~reached[dst]
        if not step.any():
            return set(np.flatnonzero(reached).tolist())
        reached[dst[step]] = True


def diffusion_region(prev: Set[int], lat: Lattice, beta: float,
                     steady: Optional[np.ndarray] = None
                     ) -> Tuple[Set[int], Optional[int]]:
    """Gibbs-layer growth around the previously claimed region.

    Returns the newly claimed nodes and the next descent start (the lowest
    potential unclaimed neighbor of the grown region), or None when the
    region already exhausts its lattice component.  Candidates are claimed
    by decreasing `steady` density (by default the Gibbs density at beta);
    of candidates with equal density, the lower index is claimed first.
    """
    if beta <= 0.0:
        raise ValueError("diffusion requires beta > 0")
    if not prev:
        raise ValueError("previous region must be nonempty")
    if steady is None:
        steady = gibbs_steady(lat, beta)

    claimed = set(prev)

    def exit_node(nodes) -> bool:
        for z in nodes:
            for y in lat.neighbors[z]:
                if y not in claimed and lat.p[y] < lat.p[z]:
                    return True
        return False

    added: Set[int] = set()
    if not exit_node(prev):
        while True:
            cands = sorted({x for z in claimed for x in lat.neighbors[z]
                            if x not in claimed})
            if not cands:
                break  # region already fills its component
            x = max(cands, key=lambda i: (steady[i], -i))
            claimed.add(x)
            added.add(x)
            if exit_node({x}):
                break

    outside = sorted({y for x in claimed for y in lat.neighbors[x]
                      if y not in claimed})
    if not outside:
        return added, None
    next_start = min(outside, key=lambda i: (lat.p[i], i))
    return added, next_start


def build_region(start, target, lat: Lattice, beta: Optional[float] = None
                 ) -> Region:
    """Alternate descent sweeps and Gibbs-layer growth until the target node
    is claimed; the result is the union of boxes of half-width dx."""
    start_node = lat.node_at(start)
    target_node = lat.node_at(target)
    if target_node not in lat.component_of(start_node):
        raise RegionError(
            "target is not lattice-connected to the start: no bounded search "
            "region exists at this pitch")
    if beta is None:
        beta = float(lat.p.max() - lat.p.min()) / 10.0 or 1.0

    # Within a component the Gibbs density does not depend on the initial
    # density, so one closed form serves every diffusion round.
    steady = gibbs_steady(lat, beta)

    region: Set[int] = set()
    x_i = start_node
    for _ in range(lat.size + 1):
        region |= gradient_region(x_i, lat)
        if target_node in region:
            break
        added, nxt = diffusion_region(region, lat, beta, steady=steady)
        region |= added
        if target_node in region:
            break
        if nxt is None:
            raise RegionError("region growth exhausted the lattice component "
                              "without claiming the target")
        x_i = nxt
    else:
        raise RegionError("region alternation exceeded the lattice size")
    return Region(nodes=tuple(sorted(region)), lattice=lat,
                  half_width=lat.dx, steady_rho=steady)


def region_dump(region: Region) -> str:
    """One lattice node per line: coord... in_region(0/1) steady_rho."""
    lat = region.lattice
    inside = set(region.nodes)
    rho = region.steady_rho if region.steady_rho is not None else np.zeros(lat.size)
    lines = []
    for i in range(lat.size):
        coords = " ".join(f"{c:.12g}" for c in lat.coords[i])
        lines.append(f"{coords} {1 if i in inside else 0} {rho[i]:.12g}")
    return "\n".join(lines) + "\n"
