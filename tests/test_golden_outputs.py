"""Golden outputs: two sha256 digests pin what fixed sets of plan() runs write.

`GOLDEN` covers mazes, corridors, the two-robot dead end with fixed-shape
escape and a sealed room; `GOLDEN_ESCAPES` covers the escape inputs it
misses: the two-robot dead end with near-obstacle escape, the three-robot
dead end with fixed-shape escape and a 3-D two-robot dead end.  Each digest
covers `trajectory_text`, `metrics_text`, every tree's
`SearchGraph.dump()` and `escape_log`, and each segment's motion status and
`repr(stop_clearance)`.  A change meant to alter these outputs updates
the digest and says why in CHANGES.md; any other change must leave both
equal.
"""

import hashlib

import numpy as np

import latticeplan as lp
from latticeplan.planner import lattice_capacity, metrics_text, trajectory_text

from conftest import MAZE_STEP, make_corridor, make_deadend, make_maze, make_sealed

GOLDEN = "2ae5de79a618a9993c34de1ab2b34ca5038c2f632adc51c9655c992f59081f56"
GOLDEN_ESCAPES = "ecedd773b59b91a87a0214e7163a279185f1b08107e41649c8393be82aaa30cb"


def _runs():
    for seed in range(0, 50, 5):
        truth, start, target = make_maze(seed)
        yield truth, start, target, lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1)
    for k in (1, 2, 3):
        truth, start, target = make_corridor(k)
        yield truth, start, target, lp.PlannerConfig(step=0.04, sensing_radius=0.1)
    truth, start, target = make_deadend()
    yield truth, start, target, lp.PlannerConfig(
        step=0.04, sensing_radius=0.12, escape=lp.TrapEscapePolicy(mode="fixed-shape"))
    truth, start, target = make_sealed(0)
    yield truth, start, target, lp.PlannerConfig(
        step=MAZE_STEP, sensing_radius=0.1,
        max_vertices=lattice_capacity(truth, MAZE_STEP, 2))


def _deadend_3d():
    """The dead end of `make_deadend` extruded over z in [0.2, 0.8], with a
    two-robot file at z = 0.5."""
    B = lp.ObstaclePrimitive.box
    prims = [B([0.55, 0.28, 0.2], [0.61, 0.72, 0.8]),
             B([0.33, 0.28, 0.2], [0.55, 0.34, 0.8]),
             B([0.33, 0.66, 0.2], [0.55, 0.72, 0.8])]
    truth = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], prims, dmin=0.03, dmax=0.13)
    return (truth, np.array([0.12, 0.47, 0.5, 0.12, 0.53, 0.5]),
            np.array([0.88, 0.47, 0.5, 0.88, 0.53, 0.5]))


def _escape_runs():
    for (truth, start, target), step, mode in (
            (make_deadend(2), 0.06, "near-obstacle"),
            (make_deadend(3), 0.04, "fixed-shape"),
            (_deadend_3d(), 0.06, "fixed-shape")):
        yield truth, start, target, lp.PlannerConfig(
            step=step, sensing_radius=0.12, escape=lp.TrapEscapePolicy(mode=mode))


def output_digest(runs=None) -> str:
    h = hashlib.sha256()
    for truth, start, target, cfg in _runs() if runs is None else runs:
        res = lp.plan(truth, start, target, cfg)
        h.update(res.status.encode())
        h.update(trajectory_text(res).encode())
        h.update(metrics_text(res).encode())
        for seg in res.segments:
            h.update(seg.graph.dump().encode())
            h.update(repr(seg.graph.escape_log).encode())
            h.update(f"{seg.motion.status} {seg.motion.stop_clearance!r}".encode())
    return h.hexdigest()


def test_golden_output_digest():
    assert output_digest() == GOLDEN


def test_golden_escape_digest():
    assert output_digest(_escape_runs()) == GOLDEN_ESCAPES
