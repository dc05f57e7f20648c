"""Graph searches that ignore the tree structure: the cross-checks for
`pathfind.backtrace`.  On a tree, the minimum-hop path and the minimum
Euclidean-length path are both the unique root-to-target chain.

Region oracles, each over neighbour lists built from a lattice's edges: a
depth-first walk is the cross-check for `fpe.Lattice.labels`; the per-edge
descent weights, the level-by-level descent sweep over the edges they mark
and the set-based Gibbs-layer growth are the ones `fpe.Lattice.descent`,
`fpe.gradient_region` and `fpe.diffusion_region` replaced.  The solver's
unit weights and point-mass density and a tree's expanded flags, used only
by tests, live here too."""

import functools
import heapq
from collections import deque
from typing import List, Optional, Set, Tuple

import numpy as np

from latticeplan.fpe import DensityField, gibbs_steady
from latticeplan.geometry import distance
from latticeplan.graph import SearchGraph
from latticeplan.pathfind import GraphPath, _make_path, _require_target


def _adjacency(g: SearchGraph) -> List[List[int]]:
    """Undirected adjacency lists of the tree's ancestor links."""
    adj: List[List[int]] = [[] for _ in range(g.count)]
    for b, a in enumerate(g.ancestor):
        if a is not None:
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _chain(parent: dict, target: int) -> List[int]:
    if target not in parent:
        raise ValueError("target vertex unreachable from the root")
    chain = []
    v = target
    while v is not None:
        chain.append(v)
        v = parent[v]
    chain.reverse()
    return chain


def bfs_path(g: SearchGraph) -> GraphPath:
    """Minimum-hop path under unit edge weights."""
    target = _require_target(g)
    adj = _adjacency(g)
    parent = {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        if v == target:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return _make_path(g, _chain(parent, target))


def dijkstra_path(g: SearchGraph) -> GraphPath:
    """Minimum Euclidean-length path with edge weights ||v_i - v_j||."""
    target = _require_target(g)
    adj = _adjacency(g)
    dist = {0: 0.0}
    parent = {0: None}
    heap = [(0.0, 0)]
    settled = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            break
        for w in adj[v]:
            nd = d + distance(g.coords[v], g.coords[w])
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                parent[w] = v
                heapq.heappush(heap, (nd, w))
    return _make_path(g, _chain(parent, target))


def expanded(g: SearchGraph) -> np.ndarray:
    """Whether each vertex of the tree, by id, was expanded."""
    return g.expanded_of(np.arange(g.count))


@functools.lru_cache(maxsize=8)
def neighbour_lists(lat) -> List[List[int]]:
    """Per lattice node, its neighbours in increasing order."""
    adj: List[List[int]] = [[] for _ in range(lat.size)]
    for j, k in lat.edges.tolist():
        adj[j].append(k)
        adj[k].append(j)
    return [sorted(ns) for ns in adj]


def component_of(lat, start: int) -> Set[int]:
    """The nodes of `start`'s lattice component, walked one neighbour at a
    time."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in neighbour_lists(lat)[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def component_labels(lat) -> np.ndarray:
    """Per node, the index of its connected component (in order of each
    component's lowest node)."""
    labels = np.full(lat.size, -1)
    count = 0
    for i in range(lat.size):
        if labels[i] < 0:
            labels[list(component_of(lat, i))] = count
            count += 1
    return labels


def diffusion_weights(lat) -> np.ndarray:
    """Weight one on every lattice edge."""
    return np.ones(lat.edges.shape[0])


def delta_field(lat, node: int, beta: float = 0.0) -> DensityField:
    """Unit mass on one node."""
    rho = np.zeros(lat.size)
    rho[node] = 1.0
    return DensityField(rho=rho, beta=beta)


def gradient_weights(lat) -> np.ndarray:
    """0/1 weight per lattice edge: for each node, mark the edge(s) toward the
    strictly lower-potential neighbor of largest potential drop; exact ties
    all carry weight one."""
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


def descent_edges(lat) -> Tuple[np.ndarray, np.ndarray]:
    """Sources and ends of the edges `gradient_weights` marks, each
    oriented from higher to lower potential."""
    ej, ek = lat.edges[gradient_weights(lat) > 0.0].T
    downhill = lat.p[ej] > lat.p[ek]
    return np.where(downhill, ej, ek), np.where(downhill, ek, ej)


def gradient_region(start_node: int, lat) -> Set[int]:
    """The descent sweep one level at a time, each level scanning every
    descent edge."""
    src, dst = descent_edges(lat)
    reached = np.zeros(lat.size, dtype=bool)
    reached[start_node] = True
    while True:
        step = reached[src] & ~reached[dst]
        if not step.any():
            return set(np.flatnonzero(reached).tolist())
        reached[dst[step]] = True


def diffusion_region(prev: Set[int], lat, beta: float,
                     steady: Optional[np.ndarray] = None
                     ) -> Tuple[Set[int], Optional[int]]:
    """Gibbs-layer growth with every candidate set rebuilt from the whole
    claimed region at each claim."""
    if steady is None:
        steady = gibbs_steady(lat, beta)
    neighbors = neighbour_lists(lat)
    claimed = set(prev)

    def exit_node(nodes) -> bool:
        return any(y not in claimed and lat.p[y] < lat.p[z]
                   for z in nodes for y in neighbors[z])

    added: Set[int] = set()
    if not exit_node(prev):
        while True:
            cands = sorted({x for z in claimed for x in neighbors[z] if x not in claimed})
            if not cands:
                break
            x = max(cands, key=lambda i: (steady[i], -i))
            claimed.add(x)
            added.add(x)
            if exit_node({x}):
                break
    outside = sorted({y for x in claimed for y in neighbors[x] if y not in claimed})
    if not outside:
        return added, None
    return added, min(outside, key=lambda i: (lat.p[i], i))
