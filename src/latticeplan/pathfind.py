"""Path extraction from a generated tree.

A tree holds exactly one root-to-target chain, so following the ancestor
links back from the target finds it.  The tests keep BFS and Dijkstra
searches as cross-checks that return the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .geometry import edge_lengths
from .graph import SearchGraph


@dataclass
class GraphPath:
    """Root-to-target vertex chain with its edge lengths and their
    left-to-right sum."""

    vertices: List[int]
    coords: List[np.ndarray]
    edges: np.ndarray  # (hops,) Euclidean length of each edge
    length: float
    hops: int


def _require_target(g: SearchGraph) -> int:
    if g.target_id is None:
        raise ValueError("graph does not contain the target vertex")
    return g.target_id


def _make_path(g: SearchGraph, chain: List[int]) -> GraphPath:
    coords = g.coords[chain]
    edges = edge_lengths(coords)
    return GraphPath(vertices=chain, coords=list(coords), edges=edges,
                     length=sum(edges.tolist()), hops=len(chain) - 1)


def backtrace(g: SearchGraph) -> GraphPath:
    """Follow ancestor links from the target back to the root."""
    v = _require_target(g)
    chain = [v]
    while g.ancestor[v] is not None:
        v = g.ancestor[v]
        chain.append(v)
    chain.reverse()
    if chain[0] != 0:
        raise ValueError("target vertex does not trace back to the root")
    return _make_path(g, chain)
