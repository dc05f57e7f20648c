"""Distance and feasibility primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import latticeplan as lp
from latticeplan.geometry import (distance, point_feasible, segment_feasible,
                                  segment_hits_box, segments_hit_boxes)


def test_distance_3_4_5():
    assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance([0.0, 0.0], [1.0, 2.0, 3.0])


class TestOpenBoxSegments:
    lo = np.array([0.4, 0.2])
    hi = np.array([0.6, 0.8])

    def test_crossing(self):
        assert segment_hits_box(np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                                self.lo, self.hi)

    def test_grazing_face_is_free(self):
        # Sliding along the x=0.4 face touches only the boundary.
        assert not segment_hits_box(np.array([0.4, 0.1]), np.array([0.4, 0.9]),
                                    self.lo, self.hi)

    def test_grazing_corner_is_free(self):
        # Touches the box exactly at the (0.4, 0.2) corner.
        assert not segment_hits_box(np.array([0.3, 0.3]), np.array([0.5, 0.1]),
                                    self.lo, self.hi)

    def test_fully_outside(self):
        assert not segment_hits_box(np.array([0.1, 0.1]), np.array([0.3, 0.15]),
                                    self.lo, self.hi)

    def test_endpoint_inside(self):
        assert segment_hits_box(np.array([0.5, 0.5]), np.array([0.9, 0.9]),
                                self.lo, self.hi)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        starts = rng.uniform(0, 1, (200, 2))
        ends = rng.uniform(0, 1, (200, 2))
        boxes_lo = rng.uniform(0, 0.7, (5, 2))
        boxes_hi = boxes_lo + rng.uniform(0.05, 0.3, (5, 2))
        cases = [(starts, ends, boxes_lo, boxes_hi)]
        # On a 1/8 grid segments run along faces, keep axes (or all of them:
        # points) fixed, and boxes have zero-width axes.
        for d in (2, 3):
            starts = rng.integers(0, 9, (400, d)) / 8
            moved = rng.integers(0, 9, (400, d)) / 8
            ends = np.where(rng.random((400, d)) < 0.5, starts, moved)
            corners = np.sort(rng.integers(0, 9, (2, 8, d)), axis=0) / 8
            cases.append((starts, ends, corners[0], corners[1]))
        cases.append((starts, ends, corners[0][:0], corners[1][:0]))  # no boxes
        for starts, ends, boxes_lo, boxes_hi in cases:
            got = segments_hit_boxes(starts, ends, boxes_lo, boxes_hi)
            assert got.shape == (len(boxes_lo), len(starts))
            want = [[segment_hits_box(a, b, lo, hi) for a, b in zip(starts, ends)]
                    for lo, hi in zip(boxes_lo, boxes_hi)]
            assert got.tolist() == want

    def test_vectorized_degenerate_axis_outside_slab(self):
        # Vertical segment left of the box: constant-x axis outside the slab.
        got = segments_hit_boxes(np.array([[0.39, 0.1]]), np.array([[0.39, 0.9]]),
                                 self.lo[None], self.hi[None])
        assert got.shape == (1, 1) and not got[0, 0]


def test_point_feasibility_open_box():
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1],
                                  [lp.ObstaclePrimitive.box([0.4, 0.2], [0.6, 0.8], known=True)])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    assert point_feasible([0.1, 0.1], env)
    assert not point_feasible([0.5, 0.5], env)
    assert point_feasible([0.4, 0.5], env)  # boundary of an open set
    assert not point_feasible([1.1, 0.5], env)  # outside the workspace


def test_segment_feasible_respects_revealed_only():
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1],
                                  [lp.ObstaclePrimitive.box([0.4, 0.2], [0.6, 0.8])])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    a, b = np.array([0.1, 0.5]), np.array([0.9, 0.5])
    assert segment_feasible(a, b, env)          # obstacle not yet revealed
    assert not segment_feasible(a, b, env.fully_revealed())


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_distance_symmetry(a, b):
    assert distance(a, b) == distance(b, a)


def test_multi_robot_band():
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [], dmin=0.03, dmax=0.13)
    env = lp.KnownEnvironment.initial(truth, 0.1)
    ok = np.array([0.2, 0.5, 0.2, 0.56])
    too_close = np.array([0.2, 0.5, 0.2, 0.52])
    too_far = np.array([0.2, 0.5, 0.2, 0.7])
    assert lp.geometry.multi_robot_feasible(ok, env, 0.03, 0.13)
    assert not lp.geometry.multi_robot_feasible(too_close, env, 0.03, 0.13)
    assert not lp.geometry.multi_robot_feasible(too_far, env, 0.03, 0.13)


def test_pair_band_interior_minimum_detected():
    # Robots swap sides: endpoints are in band but they collide mid-motion.
    env = lp.KnownEnvironment.initial(
        lp.GroundTruth.create(1, [0], [1], [], dmin=0.05, dmax=0.5), 0.1)
    a = np.array([0.2, 0.4])
    b = np.array([0.4, 0.2])
    assert not lp.geometry.formation_segment_feasible(a, b, env, 0.05, 0.5, 0.01)
