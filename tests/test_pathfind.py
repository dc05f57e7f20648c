"""Path extraction cross-checks."""

import numpy as np
import pytest

import latticeplan as lp
from latticeplan.graph import GenConfig, generate_graph
from latticeplan.pathfind import backtrace

from search_oracles import bfs_path, dijkstra_path


def _graph(start, target, prims=(), step=0.04):
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], list(prims))
    env = lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()
    g = generate_graph(start, target, env, GenConfig(step=step))
    assert g is not None
    return g


def test_three_extractors_agree_open_space():
    g = _graph([0.1, 0.1], [0.7, 0.5])
    b, f, d = backtrace(g), bfs_path(g), dijkstra_path(g)
    assert b.vertices == f.vertices == d.vertices
    assert b.length == pytest.approx(d.length, abs=1e-12)


def test_three_extractors_agree_around_obstacle():
    g = _graph([0.1, 0.5], [0.9, 0.5],
               prims=[lp.ObstaclePrimitive.box([0.37, 0.22], [0.63, 0.81], known=True)])
    b, f, d = backtrace(g), bfs_path(g), dijkstra_path(g)
    assert b.vertices == f.vertices == d.vertices


def test_path_endpoints():
    g = _graph([0.1, 0.1], [0.7, 0.5])
    p = backtrace(g)
    assert np.allclose(p.coords[0], [0.1, 0.1])
    assert np.allclose(p.coords[-1], [0.7, 0.5])
    assert p.hops == len(p.vertices) - 1


def test_missing_target_raises():
    g = lp.SearchGraph(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.1)
    g.insert(np.array([0.0, 0.0]), 1.0, None, (0, 0))
    for extract in (backtrace, bfs_path, dijkstra_path):
        with pytest.raises(ValueError):
            extract(g)
