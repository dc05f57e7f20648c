"""Byte-identity check: one sha256 per family of inputs, over what the
program writes for them.

    PYTHONPATH=src python3 tests/output_digests.py

Run it on two checkouts and compare the lines; a change that keeps the
behaviour contract leaves every line equal.  Plan outputs are hashed with
`test_golden_outputs.output_digest` (status, `trajectory_text`,
`metrics_text`, every tree's dump and escape log, each segment's motion
status and stop clearance); regions with `fpe.region_dump` and the
`contains_path` verdict.  The families:

- each benchmark workload's pass inputs at seeds 0-2, generated by
  `perfbench/scenes.py` and parsed as scenario text (region scenes: the
  planned trajectory, then the region and its containment verdict);
- the 50 test mazes;
- the corridors of 1-3 robots;
- the dead ends of 1-3 robots in every escape mode;
- the region and containment verdict of the five containment scenes at
  pitches 0.05, 0.025, 0.01 and 0.005.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import latticeplan as lp  # noqa: E402
import latticeplan.scenario  # noqa: E402,F401
from latticeplan import fpe  # noqa: E402

import scenes  # noqa: E402
from conftest import (MAZE_BUDGET, MAZE_STEP, containment_scenes, make_corridor,  # noqa: E402
                      make_deadend, make_maze)
from test_golden_outputs import output_digest  # noqa: E402

SEEDS = (0, 1, 2)


def region_text(truth, start, target, cfg: lp.PlannerConfig, beta=None) -> str:
    """The planned trajectory's status, the region around it and whether
    the region contains the trajectory."""
    res = lp.plan(truth, start, target, cfg)
    env = lp.KnownEnvironment.initial(truth, cfg.sensing_radius).fully_revealed()
    lat = fpe.Lattice.build(env, start, cfg.step, target)
    region = fpe.build_region(start, target, lat, beta=beta)
    verdict = fpe.contains_path(region, res.full_trajectory)
    return f"{res.status}\n{fpe.region_dump(region)}containment {verdict}\n"


def sha(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def workload(name: str) -> str:
    parsed = [lp.scenario.parse_scenario(inp.text)
              for seed in SEEDS for inp in scenes.pass_inputs(name, seed)]
    if name == "region-scenes":
        return sha(region_text(sc.ground_truth(), sc.start, sc.target, sc.planner_config(),
                               sc.beta) for sc in parsed)
    return output_digest((sc.ground_truth(), sc.start, sc.target, sc.planner_config())
                         for sc in parsed)


def mazes() -> str:
    return output_digest(
        (*make_maze(seed), lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1,
                                            max_vertices=MAZE_BUDGET))
        for seed in range(50))


def corridors() -> str:
    return output_digest(
        (*make_corridor(k), lp.PlannerConfig(step=0.04, sensing_radius=0.1, max_vertices=600))
        for k in (1, 2, 3))


def deadends() -> str:
    runs = []
    for k in (1, 2, 3):
        # The fixed-shape escape needs two robots or more.
        for mode in ("none", "near-obstacle") + (("fixed-shape",) if k > 1 else ()):
            for step in (0.04, 0.06):
                runs.append((*make_deadend(k), lp.PlannerConfig(
                    step=step, sensing_radius=0.12, max_vertices=4800,
                    escape=lp.TrapEscapePolicy(mode=mode))))
    return output_digest(runs)


def containment() -> str:
    return sha(region_text(lp.GroundTruth.create(2, [0, 0], [1, 1], prims), start, target,
                           lp.PlannerConfig(step=step, sensing_radius=0.12, max_vertices=2000))
               for step in (0.05, 0.025, 0.01, 0.005)
               for _, prims, start, target in containment_scenes())


def main() -> int:
    families = [(name, lambda name=name: workload(name)) for name in scenes.WORKLOADS]
    families += [("test-mazes", mazes), ("corridors", corridors), ("dead-ends", deadends),
                 ("containment-scenes", containment)]
    for name, digest in families:
        print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
