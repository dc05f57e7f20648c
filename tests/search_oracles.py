"""Graph searches that ignore the tree structure: the cross-checks for
`pathfind.backtrace`.  On a tree, the minimum-hop path and the minimum
Euclidean-length path are both the unique root-to-target chain."""

import heapq
from collections import deque
from typing import List

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
