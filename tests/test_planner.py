"""Replanning loop: motion, stop rule, statuses, text outputs."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import latticeplan as lp
from latticeplan.graph import GenConfig
from latticeplan.planner import (PlannerConfig, densify, lattice_capacity,
                                 metrics_text, plan, trajectory_text)

from geometry_oracles import oracle_segment_feasible


def _wall_world():
    # Unknown wall with a gap at the top; forces one stop-and-replan.
    wall = lp.ObstaclePrimitive.box([0.5, 0.0], [0.55, 0.9])
    return lp.GroundTruth.create(2, [0, 0], [1, 1], [wall])


def test_star_import_resolves_every_exported_name():
    names = {}
    exec("from latticeplan import *", names)
    assert set(lp.__all__) <= set(names)


def test_densify_keeps_vertices_exact():
    poly = [np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.1, 0.07])]
    samples = densify(poly, 0.03)
    assert any(np.array_equal(s, poly[1]) for s in samples)
    assert np.array_equal(samples[-1], poly[2])
    gaps = [np.linalg.norm(b - a) for a, b in zip(samples, samples[1:])]
    assert max(gaps) <= 0.03 + 1e-12


def test_plan_reaches_target_and_is_continuous():
    truth = _wall_world()
    cfg = PlannerConfig(step=0.03, sensing_radius=0.06, max_vertices=430)
    res = plan(truth, [0.2, 0.5], [0.9, 0.5], cfg)
    assert res.status == "success"
    assert np.allclose(res.full_trajectory[-1], [0.9, 0.5])
    gaps = [np.linalg.norm(b - a) for a, b in
            zip(res.full_trajectory, res.full_trajectory[1:])]
    assert max(gaps) <= cfg.motion_step + 1e-12


def test_blocked_stop_clearance_band():
    """With R = 0.06, l = 0.03, f = 1/2 the stop clearance must land in
    [0.027, 0.06]."""
    truth = _wall_world()
    cfg = PlannerConfig(step=0.03, sensing_radius=0.06, max_vertices=430)
    res = plan(truth, [0.2, 0.5], [0.9, 0.5], cfg)
    blocked = [s.motion for s in res.segments if s.motion.status == "blocked"]
    assert blocked, "the unknown wall should force at least one stop"
    for m in blocked:
        assert 0.027 - 1e-12 <= m.stop_clearance <= 0.06 + 1e-12


def test_trajectory_collision_free_against_ground_truth():
    truth = _wall_world()
    cfg = PlannerConfig(step=0.03, sensing_radius=0.06, max_vertices=430)
    res = plan(truth, [0.2, 0.5], [0.9, 0.5], cfg)
    full = lp.KnownEnvironment.initial(truth, 0.06).fully_revealed()
    for a, b in zip(res.full_trajectory, res.full_trajectory[1:]):
        assert oracle_segment_feasible(a, b, full)


def _sealed_world():
    walls = [lp.ObstaclePrimitive.box([0.3, 0.3], [0.7, 0.35], known=True),
             lp.ObstaclePrimitive.box([0.3, 0.65], [0.7, 0.7], known=True),
             lp.ObstaclePrimitive.box([0.3, 0.3], [0.35, 0.7], known=True),
             lp.ObstaclePrimitive.box([0.65, 0.3], [0.7, 0.7], known=True)]
    return lp.GroundTruth.create(2, [0, 0], [1, 1], walls)


def test_no_feasible_path_status():
    res = plan(_sealed_world(), [0.1, 0.1], [0.5, 0.5],
               PlannerConfig(step=0.04, sensing_radius=0.1, max_vertices=1100))
    assert res.status == "no-feasible-path"


def test_no_path_metrics_count_the_exhausted_tree():
    truth = _sealed_world()
    res = plan(truth, [0.1, 0.1], [0.5, 0.5],
               PlannerConfig(step=0.04, sensing_radius=0.1, max_vertices=1100))
    known = lp.sense(lp.KnownEnvironment.initial(truth, 0.1), np.array([0.1, 0.1]))
    g = lp.generate_graph([0.1, 0.1], [0.5, 0.5], known, GenConfig(step=0.04, max_vertices=1100))
    assert g.target_id is None and g.count > 1
    assert res.metrics["max_vertices"] == res.metrics["avg_vertices"] == g.count
    assert res.metrics["num_graphs"] == 1
    assert res.metrics["trapped"] == g.trapped


def test_resource_limit_status():
    """The tree that hits the vertex budget is counted in the metrics."""
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [])
    cfg = PlannerConfig(step=0.02, sensing_radius=0.1, max_vertices=30)
    res = plan(truth, [0.1, 0.1], [0.9, 0.9], cfg)
    assert res.status == "resource-limit"
    known = lp.sense(lp.KnownEnvironment.initial(truth, 0.1), np.array([0.1, 0.1]))
    with pytest.raises(lp.ResourceLimitError) as exc:
        lp.generate_graph([0.1, 0.1], [0.9, 0.9], known, cfg.gen_config())
    tree = exc.value.graph
    assert 30 - 4 < tree.count <= 30 and tree.target_id is None
    assert res.metrics["num_graphs"] == 1
    assert res.metrics["max_vertices"] == res.metrics["avg_vertices"] == tree.count


def test_infeasible_start_raises():
    box = lp.ObstaclePrimitive.box([0.2, 0.2], [0.4, 0.4], known=True)
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [box])
    with pytest.raises(ValueError):
        plan(truth, [0.3, 0.3], [0.9, 0.9], PlannerConfig(step=0.03, sensing_radius=0.1))


def test_lattice_capacity_counts_grid_points():
    """floor(span / step) + 1 per axis and robot, as an exact Python
    integer, with no cast warning: also beyond int64, and where the span or
    the quotient overflows a float."""
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [])
    assert lattice_capacity(truth, 0.5, 2) == 9      # 3 x 3
    assert lattice_capacity(truth, 0.5, 4) == 81     # two robots
    huge = lp.GroundTruth.create(3, [0, 0, 0], [1e308] * 3, [])
    wide = lp.GroundTruth.create(1, [-1e308], [1e308], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lattice_capacity(huge, 0.05, 3) == (math.floor(Fraction(1e308) / Fraction(0.05))
                                                   + 1) ** 3
        assert lattice_capacity(wide, 0.5, 1) == 4 * int(1e308) + 1


def test_text_outputs_are_stable():
    truth = _wall_world()
    cfg = PlannerConfig(step=0.03, sensing_radius=0.06, max_vertices=430)
    r1 = plan(truth, [0.2, 0.5], [0.9, 0.5], cfg)
    r2 = plan(truth, [0.2, 0.5], [0.9, 0.5], cfg)
    assert trajectory_text(r1) == trajectory_text(r2)
    assert metrics_text(r1) == metrics_text(r2)
    header = trajectory_text(r1).splitlines()[0]
    assert header == "t,segment,x0,x1"
