"""Golden outputs: one sha256 pins what a fixed set of plan() runs writes.

The digest covers `trajectory_text`, `metrics_text`, every tree's
`SearchGraph.dump()` and `escape_log`, and each segment's motion status and
`repr(stop_clearance)`.  A change meant to alter these outputs updates
GOLDEN and says why in CHANGES.md; any other change must leave it equal.
"""

import hashlib

import latticeplan as lp
from latticeplan.planner import lattice_capacity, metrics_text, trajectory_text

from conftest import MAZE_STEP, make_corridor, make_deadend, make_maze, make_sealed

GOLDEN = "2ae5de79a618a9993c34de1ab2b34ca5038c2f632adc51c9655c992f59081f56"


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


def output_digest() -> str:
    h = hashlib.sha256()
    for truth, start, target, cfg in _runs():
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
