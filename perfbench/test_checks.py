"""Each benchmark check passes real program output and fails a planted fault.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import scenes  # noqa: E402
from latticeplan import KnownEnvironment, fpe  # noqa: E402
from latticeplan.planner import plan  # noqa: E402
from latticeplan.scenario import parse_scenario  # noqa: E402


def run_plan(inp):
    sc = parse_scenario(inp.text)
    return plan(sc.ground_truth(), sc.start, sc.target, sc.planner_config())


def stops_of(res):
    return [(s.motion.stop_point, s.motion.stop_clearance)
            for s in res.segments if s.motion.status == "blocked"]


def walk(points, pitch):
    """Polyline through `points` sampled at most `pitch` apart."""
    out = [np.asarray(points[0], dtype=float)]
    for a, b in zip(points, points[1:]):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        m = int(np.ceil(np.linalg.norm(b - a) / pitch))
        out += [a + (b - a) * s / m for s in range(1, m + 1)]
    return np.array(out)


@pytest.fixture(scope="module")
def maze_run():
    for i in range(20):
        inp = scenes.maze(np.random.default_rng([7, i]))
        res = run_plan(inp)
        if stops_of(res):
            return inp, res
    raise AssertionError("no maze with a blocked stop")


# -- open-box primitives ---------------------------------------------------

def test_segment_test_counts_interiors_not_faces():
    lo, hi = np.array([[0.4, 0.4]]), np.array([[0.6, 0.6]])
    a = np.array([[0.3, 0.5], [0.3, 0.4], [0.4, 0.3], [0.5, 0.5], [0.3, 0.3]])
    b = np.array([[0.7, 0.5], [0.7, 0.4], [0.4, 0.7], [0.5, 0.5], [0.4, 0.4]])
    assert checks.crosses_interior(a, b, lo, hi).tolist() == [True, False, False, True, False]


def test_box_distance():
    lo, hi = np.array([[0.4, 0.4]]), np.array([[0.6, 0.6]])
    assert checks.box_distances(np.array([0.1, 0.0]), lo, hi)[0] == pytest.approx(0.5)


# -- unknown-mazes ---------------------------------------------------------

def test_real_maze_plan_passes(maze_run):
    inp, res = maze_run
    assert checks.plan_problems(inp, res.status, np.asarray(res.full_trajectory),
                                stops_of(res), 0) == []


def test_trajectory_through_a_box_fails():
    inp = scenes.Input("maze", 2, np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                       scenes._boxes([([0.4, 0.3], [0.6, 0.7])]), 0.03, 0.1)
    traj = walk([inp.start, inp.target], inp.step / 10.0)
    problems = checks.plan_problems(inp, "success", traj, [], 0)
    assert any("inside a box" in p for p in problems)
    assert any("through a box" in p for p in problems)


def test_step_through_a_box_between_samples_fails():
    inp = scenes.Input("maze", 2, np.array([0.1, 0.5]), np.array([0.9, 0.5]),
                       scenes._boxes([([0.5, 0.3], [0.5001, 0.7])]), 10.0, 0.1)
    traj = walk([inp.start, inp.target], 0.3)
    assert not checks.strictly_inside(traj, *checks.box_arrays(inp.boxes)).any()
    assert any("through a box" in p for p in checks.plan_problems(inp, "success", traj, [], 0))


def test_stop_outside_the_clearance_band_fails(maze_run):
    inp, res = maze_run
    (point, clearance), = stops_of(res)[:1]
    lo, hi = checks.box_arrays(inp.boxes)
    # Move the stop toward its box until the clearance leaves the band.
    box = int(np.argmin(np.abs(checks.box_distances(point, lo, hi) - clearance)))
    nearest = np.clip(point, lo[box], hi[box])
    closer = nearest + (point - nearest) * 0.2
    planted = [(closer, float(checks.box_distances(closer, lo, hi)[box]))]
    assert any("outside" in p for p in checks.stop_problems(inp, planted))
    assert any("no box" in p for p in checks.stop_problems(inp, [(point, clearance + 1e-3)]))


# -- sealed-rooms ----------------------------------------------------------

def test_sealed_room_certificate_and_flood_fill_agree():
    inp = scenes.sealed_room(np.random.default_rng(3))
    reach, linked = checks.flood_fill(inp)
    assert not linked
    assert checks.sealed_problems(inp, run_plan(inp).status, reach.shape[0]) == []
    assert checks.sealed_problems(inp, "no-feasible-path", reach.shape[0] + 1) != []


def test_room_with_a_door_is_flagged():
    inp = scenes.sealed_room(np.random.default_rng(3))
    door = replace(inp, boxes=inp.boxes[1:])  # drop the left wall
    assert "flood fill reaches the target" in checks.sealed_problems(door, "no-feasible-path")


# -- region-scenes ---------------------------------------------------------

@pytest.fixture(scope="module")
def region_run():
    inp = scenes.region_2d(np.random.default_rng(5), ("wall", 2, 1))
    sc = parse_scenario(inp.text)
    traj = np.asarray(run_plan(inp).full_trajectory)
    env = KnownEnvironment.initial(sc.ground_truth(), sc.sensing_radius).fully_revealed()
    lat = fpe.Lattice.build(env, sc.start, sc.step, sc.target)
    region = fpe.build_region(sc.start, sc.target, lat)
    return inp, traj, region


def region_problems(inp, traj, region, rho=None, nodes=None):
    return checks.region_problems(
        inp, traj, True, region.lattice.coords,
        region.nodes if nodes is None else nodes,
        region.steady_rho if rho is None else rho)


def test_real_region_passes(region_run):
    assert region_problems(*region_run) == []


def test_perturbed_steady_rho_fails(region_run):
    inp, traj, region = region_run
    rho = region.steady_rho.copy()
    rho[int(np.argmax(rho))] *= 1.0 + 1e-6
    assert any("Gibbs" in p for p in region_problems(inp, traj, region, rho=rho))


def test_region_missing_the_target_fails(region_run):
    inp, traj, region = region_run
    tnode = region.lattice.node_at(inp.target)
    nodes = [v for v in region.nodes if v != tnode]
    assert any("target node" in p for p in region_problems(inp, traj, region, nodes=nodes))


# -- formation-escape ------------------------------------------------------

def pair_input():
    return scenes.Input("corridor-2", 2, np.array([0.1, 0.47, 0.1, 0.53]),
                        np.array([0.9, 0.47, 0.9, 0.53]),
                        scenes._boxes([([0.45, 0.495], [0.55, 0.505])]), 0.04, 0.12,
                        robots=2, escape="fixed-shape", band=scenes.BAND)


def test_real_formation_plan_passes():
    inp = scenes.deadend(np.random.default_rng(1), 2)
    res = run_plan(inp)
    episodes = sum(len(s.graph.escape_log) for s in res.segments)
    assert checks.plan_problems(inp, res.status, np.asarray(res.full_trajectory),
                                stops_of(res), episodes) == []
    assert any("no episode" in p for p in checks.plan_problems(
        inp, res.status, np.asarray(res.full_trajectory), [], 0))


def test_formation_outside_its_distance_band_fails():
    inp = replace(pair_input(), boxes=())
    spread = walk([[0.1, 0.47, 0.1, 0.53], [0.5, 0.40, 0.5, 0.60],
                   [0.9, 0.47, 0.9, 0.53]], 0.004)
    assert any("band" in p for p in checks.plan_problems(inp, "success", spread, [], 1))


def test_link_through_a_box_fails():
    inp = pair_input()
    traj = walk([inp.start, inp.target], 0.004)
    problems = checks.plan_problems(inp, "success", traj, [], 1)
    assert any("link 0-1 crosses a box" in p for p in problems)
    assert not any("robot" in p for p in problems)
