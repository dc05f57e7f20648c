"""Upwind finite-volume solver for the lattice gradient/diffusion flow and
the alternating construction of the bounded search region.

The density evolves by explicit Euler steps under an adaptive CFL bound;
mass is conserved edge-wise and the free energy is a Lyapunov function.
The region alternates greedy descent sweeps (diffusion strength zero) with
Gibbs-layer growth (positive diffusion) until the target node is claimed.
Both come from the limits of the flow in closed form: a descent sweep is the
set of nodes reachable over descent edges, and the diffusion limit is the
Gibbs density on each lattice component.  The solver stays as the oracle the
tests compare them with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import CflViolationError, RegionError
from .geometry import PotentialField, as_config, segments_hit_boxes

_RHO_FLOOR = 1e-300  # guards log() only; masses themselves are never clipped


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
        pot = PotentialField(target=target)
        ranges = [range(kmin[i], kmax[i] + 1) for i in range(n)]
        shape = tuple(len(r) for r in ranges)
        grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
        dim, k = env.dim, n // env.dim
        # A grid point is a zero-length segment, which crosses an open box
        # iff the point lies inside it.
        pos = (anchor + dx * grid).reshape(-1, dim)
        bad = (segments_hit_boxes(pos, pos, env.lo, env.hi)
               | np.any((pos < env.bounds_lo) | (pos > env.bounds_hi), axis=1))
        ok = ~bad.reshape(-1, k).any(axis=1)
        coords_arr = pos.reshape(-1, n)[ok]
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
        hit = segments_hit_boxes(coords_arr[j].reshape(-1, dim),
                                 coords_arr[nbr].reshape(-1, dim), env.lo, env.hi)
        free = ~hit.reshape(j.shape[0], k).any(axis=1)
        edges_arr = np.stack([j[free], nbr[free]], axis=1)
        neighbors: List[List[int]] = [[] for _ in range(coords_arr.shape[0])]
        for a, b in edges_arr.tolist():
            neighbors[a].append(b)
            neighbors[b].append(a)
        p = np.array([pot.value(x) for x in coords_arr])
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


@dataclass(eq=False)
class ProjectionWeights:
    """0/1 weight per lattice edge; gradient mode keeps only steepest-descent
    edges, diffusion mode keeps all of them."""

    d: np.ndarray  # (E,)


def diffusion_weights(lat: Lattice) -> ProjectionWeights:
    return ProjectionWeights(d=np.ones(lat.edges.shape[0]))


def gradient_weights(lat: Lattice, pot: Optional[PotentialField] = None) -> ProjectionWeights:
    """For each node, mark the edge(s) toward the neighbor maximizing the inner
    product of the descent step with the analytic potential gradient, among
    strictly lower-potential neighbors; exact ties all carry weight one."""
    e = lat.edges.shape[0]
    # Every edge in both orientations, as a step from node a to neighbor b.
    a = np.concatenate([lat.edges[:, 0], lat.edges[:, 1]])
    b = np.concatenate([lat.edges[:, 1], lat.edges[:, 0]])
    lower = lat.p[b] < lat.p[a]
    if pot is None:
        vals = lat.p[a] - lat.p[b]
    else:
        d = lat.coords - pot.target
        norm = np.linalg.norm(d, axis=1)[:, None]
        grad = np.divide(d, norm, out=np.zeros_like(d), where=norm > 0.0)
        vals = np.sum((lat.coords[a] - lat.coords[b]) * grad[a], axis=1)
    vals = np.where(lower, vals, -np.inf)
    best = np.full(lat.size, -np.inf)
    np.maximum.at(best, a, vals)
    mark = lower & (vals >= best[a] - 1e-12)
    return ProjectionWeights(d=(mark[:e] | mark[e:]).astype(float))


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


def cfl_dt(f: DensityField, lat: Lattice, w: ProjectionWeights,
           safety: float = 0.9) -> float:
    """Largest stable explicit step (scaled by the safety factor), capped at
    dx^2 when both stability bounds are vacuous."""
    if lat.edges.shape[0] == 0:
        return lat.dx * lat.dx
    F = _f_vector(f, lat)
    ej = lat.edges[:, 0]
    ek = lat.edges[:, 1]
    dF = F[ej] - F[ek]
    pos = np.maximum(dF, 0.0) * w.d   # coefficient of flow j -> k
    neg = np.maximum(-dF, 0.0) * w.d  # coefficient of flow k -> j
    m = lat.size
    out_coef = np.bincount(ej, weights=pos, minlength=m) + \
        np.bincount(ek, weights=neg, minlength=m)
    in_flux = np.bincount(ek, weights=pos * f.rho[ej], minlength=m) + \
        np.bincount(ej, weights=neg * f.rho[ek], minlength=m)
    b1 = np.inf if out_coef.max() <= 0.0 else 1.0 / out_coef.max()
    active = in_flux > 0.0
    if not np.any(active):
        b2 = np.inf
    else:
        with np.errstate(over="ignore", divide="ignore"):
            b2 = float(np.min((1.0 - f.rho[active]) / in_flux[active]))
    raw = min(b1, b2)
    scale = 1.0 if not np.isfinite(raw) else min(safety * raw, 1.0)
    return scale * lat.dx * lat.dx


def fpe_step(f: DensityField, lat: Lattice, w: ProjectionWeights,
             dt: float) -> DensityField:
    """One explicit Euler step of the upwind scheme; conserves mass edge-wise."""
    if lat.edges.shape[0] == 0:
        return DensityField(rho=f.rho.copy(), beta=f.beta)
    F = _f_vector(f, lat)
    ej = lat.edges[:, 0]
    ek = lat.edges[:, 1]
    dF = F[ej] - F[ek]
    scale = dt / (lat.dx * lat.dx)
    # net transfer from j to k along each edge
    t = (np.maximum(dF, 0.0) * f.rho[ej] - np.maximum(-dF, 0.0) * f.rho[ek]) * w.d * scale
    m = lat.size
    delta = np.bincount(ek, weights=t, minlength=m) - \
        np.bincount(ej, weights=t, minlength=m)
    rho = f.rho + delta
    if rho.min() < -1e-14:
        raise CflViolationError(
            f"negative mass {rho.min():.3e} detected: step {dt:.3e} violates the CFL bound")
    if rho.max() > 1.0 + 1e-12:
        raise CflViolationError(
            f"mass {rho.max():.6f} exceeded 1: step {dt:.3e} violates the CFL bound")
    return DensityField(rho=rho, beta=f.beta)


@dataclass
class EvolveResult:
    field: DensityField
    converged: bool
    iterations: int
    residual: float
    max_mass_error: float
    max_energy_increase: float


def evolve_to_steady(f: DensityField, lat: Lattice, w: ProjectionWeights,
                     tol: float = 1e-10, max_iters: int = 10 ** 6,
                     safety: float = 0.9,
                     touched_threshold: Optional[float] = None,
                     touched: Optional[Set[int]] = None) -> EvolveResult:
    """Iterate explicit steps with adaptive dt until the time derivative
    drops below tol in max norm.

    The step starts at the CFL bound and is halved whenever a trial step
    would raise the free energy (the explicit scheme turns stiff near the
    steady state when the entropy term dominates); it recovers by doubling
    after a run of accepted steps.  When `touched` is given, nodes whose
    derivative is ever above `touched_threshold` are collected into it.
    """
    mass_err = 0.0
    energy_inc = 0.0
    fe = free_energy(f, lat)
    residual = np.inf
    shrink = 1.0
    streak = 0
    it = 0
    for it in range(1, max_iters + 1):
        dt = shrink * cfl_dt(f, lat, w, safety=safety)
        nxt = fpe_step(f, lat, w, dt)
        fe_next = free_energy(nxt, lat)
        if fe_next > fe + 1e-15 and shrink > 1e-9:
            shrink *= 0.5
            streak = 0
            continue  # retry the step at a gentler pace
        d = nxt.rho - f.rho
        if touched is not None:
            gain = np.nonzero(d / dt > touched_threshold)[0]
            touched.update(int(i) for i in gain)
        residual = float(np.max(np.abs(d))) / dt
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

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_config(x)
        lat = self.lattice
        node_set = self._node_set
        base = np.floor((x - lat.anchor) / lat.dx).astype(int).tolist()
        for off in _cell_offsets(len(base)):
            idx = lat.key_map.get(tuple(b + o for b, o in zip(base, off)))
            if idx is None or idx not in node_set:
                continue
            if float(np.max(np.abs(lat.coords[idx] - x))) <= self.half_width + tol:
                return True
        return False

    @property
    def _node_set(self) -> Set[int]:
        if not hasattr(self, "_cached_set"):
            self._cached_set = set(self.nodes)
        return self._cached_set


def contains_path(region: Region, trajectory: Sequence) -> bool:
    """True iff every trajectory sample lies inside some covered box."""
    return all(region.contains(x) for x in trajectory)


def gradient_region(start_node: int, lat: Lattice,
                    pot: Optional[PotentialField] = None) -> Set[int]:
    """Descent sweep: the nodes reachable from the start node over the edges
    that `gradient_weights` marks, each followed from higher to lower
    potential.  These are exactly the nodes whose density ever increases
    when a unit mass at the start evolves at beta = 0 under those weights."""
    w = gradient_weights(lat, pot)
    ej, ek = lat.edges[w.d > 0.0].T
    downhill = lat.p[ej] > lat.p[ek]
    src = np.where(downhill, ej, ek)
    dst = np.where(downhill, ek, ej)
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
    pot = PotentialField(target=as_config(target))

    # Within a component the Gibbs density does not depend on the initial
    # density, so one closed form serves every diffusion round.
    steady = gibbs_steady(lat, beta)

    region: Set[int] = set()
    x_i = start_node
    for _ in range(lat.size + 1):
        region |= gradient_region(x_i, lat, pot)
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
    inside = region._node_set
    rho = region.steady_rho if region.steady_rho is not None else np.zeros(lat.size)
    lines = []
    for i in range(lat.size):
        coords = " ".join(f"{c:.12g}" for c in lat.coords[i])
        lines.append(f"{coords} {1 if i in inside else 0} {rho[i]:.12g}")
    return "\n".join(lines) + "\n"
