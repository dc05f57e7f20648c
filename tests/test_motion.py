"""The event-driven walk of `move_along` against the per-sample loop it
replaced.

The oracle densifies into a list, senses at every motion sample, re-runs
the blocking check whenever sensing reveals something, names the blocking
boxes with the per-box `oracle_first_blocking_index`, searches the stop
sample one sample at a time, and tests every sample with
`oracle_point_feasible`.  Every move of every plan below goes through both,
and they must agree bit for bit.
"""

from typing import List

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import planner
from latticeplan.environment import distance_to_revealed
from latticeplan.geometry import box_distances, distance, edge_lengths
from latticeplan.pathfind import GraphPath
from latticeplan.planner import MotionOutcome, PlannerConfig, _first_blocking_index, densify

from conftest import MAZE_BUDGET, MAZE_STEP, make_corridor, make_deadend, make_maze
from geometry_oracles import (oracle_first_blocking_index, oracle_point_feasible,
                              oracle_segment_feasible)


def oracle_densify(polyline, step) -> List[np.ndarray]:
    samples = [polyline[0]]
    for a, b in zip(polyline, polyline[1:]):
        length = distance(a, b)
        if length == 0.0:
            continue
        m = max(int(np.ceil(length / step)), 1)
        for s in range(1, m):
            samples.append(a + (s / m) * (b - a))
        samples.append(b)
    return samples


def oracle_clearance_to(x, rows, known) -> float:
    if not rows:
        return distance_to_revealed(x, known)
    return float(box_distances(known.robot_positions(x), known.lo[rows], known.hi[rows]).min())


def oracle_move_along(path, known, cfg):
    samples = oracle_densify(path.coords, cfg.motion_step)
    if len(samples) < 2:
        out = MotionOutcome(traversed=[samples[0]], status="exhausted",
                            stop_point=samples[0],
                            stop_clearance=distance_to_revealed(samples[0], known))
        return out, known
    known = lp.sense(known, samples[0])
    i = 0
    traversed = [samples[0]]
    end = len(samples) - 1
    stop_at = end
    blocked = False
    blockers = []
    need_check = True
    while True:
        if need_check:
            need_check = False
            jb, rows = _first_blocking_index(samples, i, known)
            if jb is None:
                stop_at, blocked, blockers = end, False, []
            else:
                blocked = True
                _, blockers = oracle_first_blocking_index(samples[jb:jb + 2], known)
                assert rows.tolist() == blockers
                threshold = cfg.stop_fraction * known.sensing_radius
                stop_at = i
                for j in range(jb, i - 1, -1):
                    if oracle_clearance_to(samples[j], blockers, known) >= threshold:
                        stop_at = j
                        break
        if i >= stop_at:
            break
        i += 1
        traversed.append(samples[i])
        new_known = lp.sense(known, samples[i])
        if new_known is not known:
            known = new_known
            need_check = True
        if not oracle_point_feasible(samples[i], known):
            raise lp.ModelViolationError("robot discovered inside an obstacle while moving")
    status = "blocked" if blocked and i < end else "reached-target"
    clearance = (oracle_clearance_to(samples[i], blockers, known) if status == "blocked"
                 else distance_to_revealed(samples[i], known))
    out = MotionOutcome(traversed=traversed, status=status,
                        stop_point=samples[i], stop_clearance=clearance)
    return out, known


def assert_same_motion(path, known, cfg):
    """Run both walks from the same state; return the new walk's result."""
    try:
        want = oracle_move_along(path, known, cfg)
    except lp.ModelViolationError as exc:
        with pytest.raises(lp.ModelViolationError, match=str(exc)):
            planner.move_along(path, known, cfg)
        raise
    got = planner.move_along(path, known, cfg)
    (wm, wk), (gm, gk) = want, got
    assert len(gm.traversed) == len(wm.traversed)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(gm.traversed, wm.traversed))
    assert gm.status == wm.status
    assert gm.stop_point.tobytes() == wm.stop_point.tobytes()
    assert repr(gm.stop_clearance) == repr(wm.stop_clearance)
    assert gk.revealed == wk.revealed
    return got


@pytest.fixture
def checked_moves(monkeypatch):
    """Route every move of `plan` through both walks; yields the list of
    motion statuses seen."""
    statuses = []
    real = planner.move_along

    def both(path, known, cfg):
        monkeypatch.setattr(planner, "move_along", real)
        try:
            out = assert_same_motion(path, known, cfg)
        finally:
            monkeypatch.setattr(planner, "move_along", both)
        statuses.append(out[0].status)
        return out

    monkeypatch.setattr(planner, "move_along", both)
    return statuses


def _maze_3d():
    """Unknown 3-D slab with a gap above, plus two unknown blocks."""
    B = lp.ObstaclePrimitive.box
    boxes = [B([0.45, 0.0, 0.0], [0.5, 0.7, 1.0]), B([0.2, 0.05, 0.05], [0.3, 0.2, 0.3]),
             B([0.65, 0.55, 0.6], [0.8, 0.75, 0.95])]
    truth = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], boxes)
    return truth, np.array([0.1, 0.5, 0.5]), np.array([0.9, 0.5, 0.5])


def _clutter(n: int = 300):
    """Small unknown boxes off a clear band around y = 0.5: at the fine pitch
    below one move walks over 800 samples, so events fall in several blocks
    of `_reveal_events`."""
    rng = np.random.default_rng(7)
    boxes = []
    while len(boxes) < n:
        c = rng.uniform(0.02, 0.98, 2)
        if abs(c[1] - 0.5) >= 0.06:
            h = rng.uniform(0.002, 0.005, 2)
            boxes.append(lp.ObstaclePrimitive.box(c - h, c + h))
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], boxes)
    return truth, np.array([0.1, 0.5]), np.array([0.9, 0.5])


def _runs():
    for seed in range(50):
        truth, start, target = make_maze(seed)
        yield f"maze-{seed}", truth, start, target, PlannerConfig(
            step=MAZE_STEP, sensing_radius=0.1, max_vertices=MAZE_BUDGET)
    for k in (1, 2, 3):
        truth, start, target = make_corridor(k)
        yield f"corridor-{k}", truth, start, target, PlannerConfig(
            step=0.04, sensing_radius=0.1, max_vertices=550)
    truth, start, target = make_deadend()
    for mode, step in (("near-obstacle", 0.06), ("fixed-shape", 0.04)):
        yield f"deadend-{mode}", truth, start, target, PlannerConfig(
            step=step, sensing_radius=0.12, max_vertices=900,
            escape=lp.TrapEscapePolicy(mode=mode))
    truth, start, target = _maze_3d()
    yield "maze-3d", truth, start, target, PlannerConfig(step=0.1, sensing_radius=0.12,
                                                        max_vertices=120)
    yield ("no-boxes", lp.GroundTruth.create(2, [0, 0], [1, 1], []), np.array([0.1, 0.1]),
           np.array([0.9, 0.8]), PlannerConfig(step=0.05, sensing_radius=0.1, max_vertices=130))
    truth, start, target = _clutter()
    yield "clutter", truth, start, target, PlannerConfig(step=0.01, sensing_radius=0.08,
                                                        max_vertices=480)


@pytest.mark.parametrize("name,truth,start,target,cfg", list(_runs()),
                         ids=[r[0] for r in _runs()])
def test_event_walk_equals_per_sample_walk(checked_moves, name, truth, start, target, cfg):
    res = lp.plan(truth, start, target, cfg)
    assert res.status == "success"
    assert len(checked_moves) == len(res.segments) >= 1


def test_event_walk_blocks_on_the_way(checked_moves):
    """The mazes above do stop short of revealed walls, not only reach."""
    for seed in range(10):
        truth, start, target = make_maze(seed)
        lp.plan(truth, start, target,
                PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=MAZE_BUDGET))
    assert "blocked" in checked_moves and "reached-target" in checked_moves


def _line_world(*boxes, known=()):
    """Boxes (lo, hi) in a workspace around the unit square; the rows listed
    in `known` are known from the start."""
    return lp.GroundTruth.create(2, [-1, -1], [2, 2], [
        lp.ObstaclePrimitive.box(lo, hi, known=i in known) for i, (lo, hi) in enumerate(boxes)])


def _path(coords):
    return GraphPath(vertices=list(range(len(coords))), coords=coords,
                     edges=edge_lengths(np.asarray(coords)),
                     length=distance(coords[0], coords[-1]), hops=len(coords) - 1)


def _line_path(*xs):
    return _path([np.array([x, 0.5]) for x in xs])


def test_box_at_exactly_the_sensing_radius():
    """Samples at x = s/16; the wall's face at 0.625 is exactly R = 0.125
    from the sample at 0.5, which must reveal it there.  With f = 0.75 the
    next sample is already inside the stop band, so the walk stops at 0.5."""
    truth = _line_world(([0.625, 0.25], [0.75, 0.75]))
    cfg = PlannerConfig(step=0.625, sensing_radius=0.125, stop_fraction=0.75)
    known = lp.KnownEnvironment.initial(truth, cfg.sensing_radius)
    motion, _ = assert_same_motion(_line_path(0.0, 1.0), known, cfg)
    assert motion.status == "blocked"
    assert motion.stop_point.tolist() == [0.5, 0.5]


def test_boxes_near_the_start_already_revealed():
    """Boxes within R of the start are revealed before the walk begins; one
    of them is known from the start, the other sensed where the tree began."""
    truth = _line_world(([0.0, 0.55], [0.3, 0.6]), ([0.05, 0.4], [0.2, 0.45]),
                        ([0.5, 0.3], [0.55, 0.52]), ([0.7, 0.52], [0.8, 0.7]), known=(0,))
    cfg = PlannerConfig(step=0.05, sensing_radius=0.1)
    known = lp.sense(lp.KnownEnvironment.initial(truth, cfg.sensing_radius),
                     np.array([0.1, 0.5]))
    assert known.revealed == {0, 1}
    motion, after = assert_same_motion(_line_path(0.1, 0.9), known, cfg)
    assert motion.status == "blocked" and after.revealed == {0, 1, 2}
    full = known.fully_revealed()
    motion, _ = assert_same_motion(_line_path(0.1, 0.45), full, cfg)
    assert motion.status == "reached-target"


def test_stop_short_of_a_box_only_a_robot_link_crosses():
    """Two robots at y = 1/4 and 3/4 move along x; the samples sit at x =
    j/16.  A box between them cuts the link at x = 9/16 and no robot's own
    segment, while a wall 1/16 below the lower robot cuts nothing.  The
    stop band f * R = 1/4 is measured to the link's box alone: the walk
    stops at x = 5/16, the last sample at least 1/4 from it, although the
    wall sits closer."""
    wall, link = ([0.0, 1 / 8], [1.0, 3 / 16]), ([17 / 32, 7 / 16], [19 / 32, 9 / 16])
    truth = _line_world(wall, link)
    cfg = PlannerConfig(step=0.9, sensing_radius=0.5, stop_fraction=0.5)
    path = _path([np.array([0.0, 0.25, 0.0, 0.75]), np.array([1.0, 0.25, 1.0, 0.75])])
    samples = densify(path.coords, cfg.motion_step)
    assert samples[:, 0].tolist() == [j / 16 for j in range(17)]

    full = lp.KnownEnvironment.initial(truth, cfg.sensing_radius).fully_revealed()
    jb, rows = _first_blocking_index(samples, 0, full)
    assert (jb, rows.tolist()) == (8, [1])
    assert oracle_segment_feasible(samples[8], samples[9], full)

    known = lp.KnownEnvironment.initial(truth, cfg.sensing_radius)
    motion, after = assert_same_motion(path, known, cfg)
    assert motion.status == "blocked" and after.revealed == {0, 1}
    assert motion.stop_point[0] == 5 / 16
    assert motion.stop_clearance == oracle_clearance_to(motion.stop_point, [1], after) >= 1 / 4
    assert oracle_clearance_to(samples[6], [1], after) < 1 / 4
    assert distance_to_revealed(motion.stop_point, after) == 1 / 16


@pytest.mark.parametrize("name,polyline,step", [
    ("repeated-vertices", [[0.1, 0.2], [0.1, 0.2], [0.5, 0.2], [0.5, 0.2], [0.5, 0.2],
                           [0.5, 0.9], [0.1, 0.9]], 0.03),
    ("one-point", [[0.3, 0.7]], 0.05),
    ("short-edges", [[0.1, 0.1], [0.1 + 1e-3, 0.1], [0.2, 0.3], [0.2, 0.3 + 2e-12]], 0.05),
    ("formation", [[0.1, 0.47, 0.1, 0.53], [0.37, 0.47, 0.37, 0.53], [0.37, 0.47, 0.37, 0.53],
                   [0.9, 0.2, 0.9, 0.26]], 0.004),
    ("off-grid", list(np.random.default_rng(3).uniform(0, 1, (9, 3))), 0.071),
])
def test_densify_equals_per_edge_loop(name, polyline, step):
    polyline = [np.asarray(p, dtype=float) for p in polyline]
    want = np.array(oracle_densify(polyline, step))
    for lengths in (None, edge_lengths(np.asarray(polyline))):
        got = densify(polyline, step, lengths)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_sample_path_is_exhausted():
    truth = _line_world(([0.3, 0.3], [0.4, 0.6]))
    known = lp.KnownEnvironment.initial(truth, 0.1)
    cfg = PlannerConfig(step=0.05, sensing_radius=0.1)
    for path in (_line_path(0.2), _line_path(0.2, 0.2)):
        motion, _ = assert_same_motion(path, known, cfg)
        assert motion.status == "exhausted" and len(motion.traversed) == 1


def test_model_violation_raises_the_same_error():
    """A sensing radius below the motion pitch lets the robot step into a
    box it has not seen."""
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [
        lp.ObstaclePrimitive.box([0.45, 0.4], [0.55, 0.6])])
    cfg = PlannerConfig(step=0.2, sensing_radius=0.001, max_vertices=25)
    path = _line_path(0.1, 0.9)
    with pytest.raises(lp.ModelViolationError):
        assert_same_motion(path, lp.KnownEnvironment.initial(truth, 0.001), cfg)
    with pytest.raises(lp.ModelViolationError):
        lp.plan(truth, [0.1, 0.5], [0.9, 0.5], cfg)


def test_senses_only_at_reveal_events(monkeypatch):
    """After the start, every `sense` call of a walk reveals something, and
    `point_feasible` is never called."""
    calls = []
    real_sense = planner.sense

    def counting_sense(known, x):
        new = real_sense(known, x)
        calls.append(new is not known)
        return new

    def forbidden(*args):
        raise AssertionError("move_along called point_feasible")

    truth, start, target = make_maze(3)
    cfg = PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=MAZE_BUDGET)
    known = lp.sense(lp.KnownEnvironment.initial(truth, 0.1), start)
    g = lp.generate_graph(start, target, known, cfg.gen_config())
    monkeypatch.setattr(planner, "sense", counting_sense)
    monkeypatch.setattr(planner, "point_feasible", forbidden)
    motion, after = planner.move_along(lp.backtrace(g), known, cfg)
    assert len(after.revealed) > len(known.revealed)
    assert len(calls) >= 2 and all(calls[1:])
    assert len(calls) < len(motion.traversed)
