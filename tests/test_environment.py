"""Sensing-radius revelation and environment snapshots."""

import numpy as np
import pytest

import latticeplan as lp
from latticeplan.environment import distance_to_revealed, sense


def _world():
    prims = [lp.ObstaclePrimitive.box([0.4, 0.4], [0.6, 0.6]),
             lp.ObstaclePrimitive.box([0.8, 0.8], [0.9, 0.9]),
             lp.ObstaclePrimitive.box([0.0, 0.9], [0.1, 1.0], known=True)]
    return lp.GroundTruth.create(2, [0, 0], [1, 1], prims)


def test_initially_known_are_revealed():
    env = lp.KnownEnvironment.initial(_world(), 0.1)
    assert env.lo.tolist() == [[0.0, 0.9]] and env.hi.tolist() == [[0.1, 1.0]]


def test_box_corners_must_match_the_workspace_dim():
    box = lp.ObstaclePrimitive.box([0.4, 0.4], [0.6, 0.6])
    with pytest.raises(ValueError, match=r"obstacle 0 has corners of shape \(2,\)"):
        lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], [box])


def test_whole_primitive_revealed_on_contact():
    env = lp.KnownEnvironment.initial(_world(), 0.1)
    env = sense(env, [0.35, 0.5])  # 0.05 from the first box
    ids = sorted(env.revealed)
    assert 0 in ids and 1 not in ids


def test_sense_is_identity_when_nothing_new():
    env = lp.KnownEnvironment.initial(_world(), 0.1)
    assert sense(env, [0.2, 0.2]) is env


def test_revelation_is_monotone():
    env = lp.KnownEnvironment.initial(_world(), 0.15)
    seen = set(env.revealed)
    rng = np.random.default_rng(11)
    for _ in range(50):
        env = sense(env, rng.uniform(0, 1, 2))
        assert set(env.revealed) >= seen
        seen = set(env.revealed)


def test_any_robot_reveals_for_all():
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1],
                                  [lp.ObstaclePrimitive.box([0.4, 0.4], [0.6, 0.6])],
                                  dmin=0.03, dmax=1.0)
    env = lp.KnownEnvironment.initial(truth, 0.1)
    # First robot far away, second within range: still revealed (broadcast).
    env = sense(env, [0.1, 0.1, 0.45, 0.31])
    assert 0 in env.revealed


def test_distance_to_revealed():
    env = lp.KnownEnvironment.initial(_world(), 0.1)
    env = sense(env, [0.35, 0.5])
    assert np.isclose(distance_to_revealed([0.3, 0.5], env), 0.1)
    empty = lp.KnownEnvironment.initial(
        lp.GroundTruth.create(2, [0, 0], [1, 1], []), 0.1)
    assert distance_to_revealed([0.5, 0.5], empty) == np.inf
