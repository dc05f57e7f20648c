"""Upwind finite-volume solver for the lattice gradient/diffusion flow and
the alternating construction of the bounded search region.

The density evolves by explicit Euler steps under an adaptive CFL bound;
mass is conserved edge-wise and the free energy is a Lyapunov function.
The region alternates greedy descent sweeps (diffusion strength zero) with
Gibbs-layer growth (positive diffusion) until the target node is claimed.
Both come from the limits of the flow in closed form: a descent sweep is the
set of nodes reachable over descent steps, and the diffusion limit is the
Gibbs density on each lattice component.  The solver stays as the oracle the
tests compare them with.  A lattice keeps its nodes on a dense grid of their
keys and one neighbour table, from which it derives its steepest descent
steps and component labels once.  A sweep walks the descent table from its
start; a growth tests the previous region's rows for an exit in one numpy
pass, then grows its boundary by each claimed node's row.  `contains_path`
tests each trajectory sample against the covered box at its nearest key
first, and only the samples left over against the 3**n keys around their
cell corner; a region holds only its claimed nodes, and `region_dump` marks
them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from .environment import KnownEnvironment
from .errors import CflViolationError, RegionError
from .geometry import as_config, rows_point_feasible, rows_segment_feasible

_RHO_FLOOR = 1e-300  # guards log() only; masses themselves are never clipped
_CONTAIN_TOL = 1e-9  # slack on the half-width of a covered box
_CONTAIN_BLOCK = 512  # samples per containment pass: 3**n * n keys each


@dataclass(eq=False)
class Lattice:
    """Feasible grid points of one pitch with axis adjacency and potentials.

    `nbr` is the one adjacency: row j holds the node one key below j along
    each axis, then the node one key above, where the segment to it is free,
    else -1, so each edge sits at both its ends.  `index` is the dense grid
    of lattice keys from `kmin` on: the node at each key, or -1.  It reaches
    one key beyond the workspace on every side, so a key clipped onto it
    finds -1 wherever it lies off the grid."""

    coords: np.ndarray  # (M, n)
    dx: float
    anchor: np.ndarray
    p: np.ndarray       # (M,) potential per node
    nbr: np.ndarray     # (M, 2n) neighbour one step down, then up, each axis; -1: none
    index: np.ndarray   # node per lattice key, -1 where there is none
    kmin: np.ndarray    # (n,) the key at index[0, ..., 0]

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
        shape = tuple(max(k, 0) for k in (kmax - kmin + 1).tolist())
        # numpy holds no array of more bytes than np.intp counts; the largest
        # arrays here hold n 8-byte numbers per grid point.
        if math.prod(k + 2 for k in shape) * n * 8 > np.iinfo(np.intp).max:
            raise MemoryError(f"a region lattice of {math.prod(shape):.3g} grid points "
                              f"(pitch {dx:g}) is too large for one array")
        x = anchor + dx * (np.indices(shape).reshape(n, -1).T + kmin)
        ok = rows_point_feasible(x, env)
        coords_arr = x[ok]
        index = np.full(tuple(k + 2 for k in shape), -1)
        inner = (slice(1, -1),) * n
        index[inner].flat[np.flatnonzero(ok)] = np.arange(coords_arr.shape[0])
        # Per node and axis, the node one step up that axis (-1: none), then
        # -1 wherever the segment there is blocked; its mirror is the node
        # one step down.
        up = np.stack([index[inner[:axis] + (slice(2, None),) + inner[axis + 1:]]
                       for axis in range(n)], axis=-1).reshape(-1, n)[ok]
        j, axes = np.nonzero(up >= 0)
        k = up[j, axes]
        free = rows_segment_feasible(coords_arr[j], coords_arr[k], env)
        up[j[~free], axes[~free]] = -1
        down = np.full_like(up, -1)
        down[k[free], axes[free]] = j[free]
        d = coords_arr - target
        p = np.sqrt(np.vecdot(d, d))  # each node's distance to the target
        return Lattice(coords=coords_arr, dx=dx, anchor=anchor, p=p,
                       nbr=np.concatenate([down, up], axis=1), index=index, kmin=kmin - 1)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def nodes_at_keys(self, keys: np.ndarray) -> np.ndarray:
        """The node at each lattice key of `keys` (..., n), or -1 where there
        is none."""
        cell = np.minimum(np.maximum(keys - self.kmin, 0), np.subtract(self.index.shape, 1))
        return self.index[tuple(cell[..., axis] for axis in range(self.kmin.shape[0]))]

    def node_at(self, x) -> int:
        """Index of the lattice node at configuration x (must be on-grid)."""
        x = as_config(x)
        idx = int(self.nodes_at_keys(np.rint((x - self.anchor) / self.dx).astype(int)))
        if idx < 0 or float(np.abs(self.coords[idx] - x).max()) > 0.25 * self.dx:
            raise ValueError(f"configuration {x} is not a lattice node")
        return idx

    @cached_property
    def edges(self) -> np.ndarray:
        """(E, 2) the node pairs (j, k) with k one step up an axis from j
        across a free segment, in (j, axis) order: the up half of `nbr`."""
        up = self.nbr[:, self.nbr.shape[1] // 2:]
        j, axes = np.nonzero(up >= 0)
        return np.stack([j, up[j, axes]], axis=1)

    @cached_property
    def descent(self) -> np.ndarray:
        """(M, 2n) per node, its neighbours of largest potential drop, ties
        within 1e-12 included; -1 elsewhere and where no neighbour is lower.

        The potential p is the distance to the target t.  A step of sign s
        along axis i gives |b - t|^2 = |a - t|^2 - 2 s dx (a_i - t_i) + dx^2,
        so the largest drop p[a] - p[b] is the step of largest inner product
        with the gradient of p at a."""
        lower = (self.nbr >= 0) & (self.p[self.nbr] < self.p[:, None])
        drop = np.where(lower, self.p[:, None] - self.p[self.nbr], -np.inf)
        best = drop.max(axis=1, keepdims=True)
        return np.where(lower & (drop >= best - 1e-12), self.nbr, -1)

    @cached_property
    def labels(self) -> np.ndarray:
        """Per node, the index of its connected component, in order of each
        component's lowest node.  Each node points at a lower one or at
        itself; every round hooks the higher root of each edge's ends onto
        the lower one, then jumps pointers until each node points at its
        root, the lowest node of its component found so far."""
        root = np.arange(self.size)
        ej, ek = self.edges.T
        while True:
            rj, rk = root[ej], root[ek]
            if (rj == rk).all():
                return np.cumsum(root == np.arange(self.size))[root] - 1
            np.minimum.at(root, np.maximum(rj, rk), np.minimum(rj, rk))
            while not ((hop := root[root]) == root).all():
                root = hop


@dataclass
class DensityField:
    rho: np.ndarray
    beta: float

    @staticmethod
    def uniform(lat: Lattice, beta: float) -> "DensityField":
        return DensityField(rho=np.full(lat.size, 1.0 / lat.size), beta=beta)


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
    labels = lat.labels
    count = int(labels.max()) + 1
    low = np.full(count, np.inf)
    np.minimum.at(low, labels, lat.p)
    w = np.exp(-(lat.p - low[labels]) / beta)
    total = np.bincount(labels, weights=w, minlength=count)
    share = np.bincount(labels, minlength=count) / lat.size
    return w / total[labels] * share[labels]


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
    of the 3**n lattice keys around its cell corner.  The nearest key is one
    of them and covers almost every sample, so it is tested first, for all
    samples in one numpy pass; only the samples it leaves uncovered go
    through the 3**n keys, up to _CONTAIN_BLOCK samples per pass."""
    if len(trajectory) == 0:
        return True
    if not region.nodes:
        return False
    x = np.asarray(trajectory, dtype=float).reshape(len(trajectory), -1)
    lat = region.lattice
    reach = region.half_width + _CONTAIN_TOL
    # Per node and one past the last (for a lookup's -1), whether it is claimed.
    claimed = np.zeros(lat.size + 1, dtype=bool)
    claimed[list(region.nodes)] = True
    rel = (x - lat.anchor) / lat.dx
    idx = lat.nodes_at_keys(np.rint(rel).astype(int))
    covered = claimed[idx] & (np.abs(lat.coords[idx] - x).max(axis=-1) <= reach)
    rest = np.flatnonzero(~covered)
    n = x.shape[1]
    for first in range(0, rest.shape[0], _CONTAIN_BLOCK):
        some = rest[first:first + _CONTAIN_BLOCK]
        offsets = np.indices((3,) * n).reshape(n, -1).T - 1  # the 3**n around a corner
        idx = lat.nodes_at_keys(np.floor(rel[some]).astype(int)[:, None, :] + offsets)
        gap = np.abs(lat.coords[idx] - x[some, None, :]).max(axis=-1)
        if not (claimed[idx] & (gap <= reach)).any(axis=1).all():
            return False
    return True


def gradient_region(start_node: int, lat: Lattice) -> Set[int]:
    """Descent sweep: the nodes reachable from the start node by steps to a
    neighbour in `Lattice.descent`, walked from the start, so only the
    nodes reached are touched.  These are exactly the nodes whose density
    ever increases when a unit mass at the start evolves at beta = 0 with
    weight one on the descent steps."""
    reached = {start_node}
    stack = [start_node]
    while stack:
        for k in lat.descent[stack.pop()].tolist():
            if k >= 0 and k not in reached:
                reached.add(k)
                stack.append(k)
    return reached


def diffusion_region(prev: Set[int], lat: Lattice, beta: float,
                     steady: Optional[np.ndarray] = None
                     ) -> Tuple[Set[int], Optional[int]]:
    """Gibbs-layer growth around the previously claimed region.

    Returns the newly claimed nodes and the next descent start (the lowest
    potential unclaimed neighbor of the grown region), or None when the
    region already exhausts its lattice component.  Unless some node of
    `prev` has a lower unclaimed neighbour, candidates are claimed by
    decreasing `steady` density (by default the Gibbs density at beta), the
    lower index first among equal densities, until a claimed node has one.
    The candidates, the region's unclaimed neighbours, grow by each claimed
    node's row.
    """
    if beta <= 0.0:
        raise ValueError("diffusion requires beta > 0")
    if not prev:
        raise ValueError("previous region must be nonempty")
    if steady is None:
        steady = gibbs_steady(lat, beta)

    ids = np.fromiter(prev, dtype=np.intp, count=len(prev))
    # Per node and one past the last (for a row's -1), whether it is claimed.
    claimed = np.zeros(lat.size + 1, dtype=bool)
    claimed[ids] = claimed[-1] = True
    rows = lat.nbr[ids]
    out = ~claimed[rows]
    boundary = set(rows[out].tolist())
    added: Set[int] = set()
    if not (out & (lat.p[rows] < lat.p[ids, None])).any():
        heap = [(-steady[i], i) for i in boundary]
        heapq.heapify(heap)
        while heap:
            x = heapq.heappop(heap)[1]
            added.add(x)
            boundary.discard(x)
            exits = False
            for y in lat.nbr[x].tolist():
                if y < 0 or y in prev or y in added:
                    continue
                exits = exits or lat.p[y] < lat.p[x]
                if y not in boundary:
                    boundary.add(y)
                    heapq.heappush(heap, (-steady[y], y))
            if exits:
                break

    if not boundary:
        return added, None
    return added, min(boundary, key=lambda i: (lat.p[i], i))


def build_region(start, target, lat: Lattice, beta: Optional[float] = None
                 ) -> Region:
    """Alternate descent sweeps and Gibbs-layer growth until the target node
    is claimed; the result is the union of boxes of half-width dx."""
    start_node = lat.node_at(start)
    target_node = lat.node_at(target)
    if lat.labels[target_node] != lat.labels[start_node]:
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
