"""Command line front end.

Subcommands: plan (run the replanning loop), region (build the bounded
search region and check it contains the planned trajectory), batch (plan
several scenarios and aggregate metrics), validate (parse-check only).

Exit codes: 0 success, 2 no feasible path, 3 resource limit exhausted
(vertex budget or memory), 4 invalid input: a command line the parser
rejects (a missing --scenario, an unknown subcommand), a scenario file that
cannot be read as UTF-8 text, or fails to parse or validate, an --out path
that cannot be a directory (checked before planning), a robot stepping into
a box it never sensed or a region pitch too coarse to connect start and
target, 5 internal error.  --help exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import fpe, render
from .environment import KnownEnvironment, sense
from .errors import ModelViolationError, PlanningError, RegionError, ScenarioError
from .planner import PlanResult, metrics_text, plan, trajectory_text
from .scenario import Scenario, parse_scenario

EXIT_OK = 0
EXIT_NO_PATH = 2
EXIT_RESOURCE = 3
EXIT_SCENARIO = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    """A command-line argument the command cannot use."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are invalid input (exit 4), not exit
    2, which argparse shares with "no feasible path"."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_scenario(path: str, overrides: List[str]) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                            f"at offset {exc.start}") from None
    for ov in overrides:
        if "=" not in ov:
            raise ScenarioError(f"override {ov!r} is not KEY=VALUE")
        key, value = ov.split("=", 1)
        text += f"\n{key.strip()} {value.strip().replace(',', ' ')}\n"
    return parse_scenario(text)


def _status_code(result: PlanResult) -> int:
    return {"success": EXIT_OK, "no-feasible-path": EXIT_NO_PATH,
            "resource-limit": EXIT_RESOURCE}[result.status]


def _out_dir(args) -> Optional[Path]:
    """Create the --out directory; the commands call this before planning."""
    if args.out is None:
        return None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise UsageError(f"--out {args.out} is not a directory") from None
    return out


def run_plan(args) -> int:
    sc = _load_scenario(args.scenario, args.override)
    out = _out_dir(args)
    truth = sc.ground_truth()
    result = plan(truth, sc.start, sc.target, sc.planner_config())
    if out is not None:
        (out / "trajectory.csv").write_text(trajectory_text(result))
        for i, seg in enumerate(result.segments):
            (out / f"graph_{i:03d}.txt").write_text(seg.graph.dump())
        if args.metrics:
            (out / "metrics.csv").write_text(metrics_text(result))
        if args.svg and sc.dim == 2:
            known = KnownEnvironment.initial(truth, sc.sensing_radius)
            for i, seg in enumerate(result.segments):
                known = sense(known, np.concatenate(seg.motion.traversed))
                (out / f"segment_{i:03d}.svg").write_text(
                    render.render_plan_segment(result, i, known))
    print(f"status: {result.status}")
    print(f"graphs: {result.metrics['num_graphs']}  "
          f"max_vertices: {result.metrics['max_vertices']}")
    return _status_code(result)


def run_region(args) -> int:
    sc = _load_scenario(args.scenario, args.override)
    if sc.dim * sc.robots > 3:
        raise ScenarioError("region construction supports configurations of at "
                            "most 3 numbers (one robot in 2D or 3D)")
    out = _out_dir(args)
    truth = sc.ground_truth()
    result = plan(truth, sc.start, sc.target, sc.planner_config())
    code = _status_code(result)
    if code != EXIT_OK:
        print(f"status: {result.status}")
        return code
    pitch = "grid_step" if sc.grid_step is not None else "step"
    dx = getattr(sc, pitch)
    # The region lattice is anchored at the start, so the target must sit on
    # it (within the quarter pitch `Lattice.node_at` allows).
    cells = (sc.target - sc.start) / dx
    if np.max(np.abs(cells - np.rint(cells))) > 0.25:
        raise ScenarioError(f"target - start is not a whole number of region "
                            f"pitches ({pitch} {dx:g})")
    full = KnownEnvironment.initial(truth, sc.sensing_radius).fully_revealed()
    lat = fpe.Lattice.build(full, sc.start, dx, sc.target)
    try:
        region = fpe.build_region(sc.start, sc.target, lat, beta=sc.beta)
    except RegionError as exc:
        raise ScenarioError(f"{exc} ({pitch} {dx:g})") from exc
    contained = fpe.contains_path(region, result.full_trajectory)
    if out is not None:
        (out / "region.txt").write_text(fpe.region_dump(region))
        (out / "trajectory.csv").write_text(trajectory_text(result))
        if args.svg and sc.dim == 2:
            svg = render.render_scene(full, sc.start, sc.target, region=region,
                                      path_coords=result.full_trajectory)
            (out / "region.svg").write_text(svg)
    print(f"region nodes: {len(region.nodes)} of {lat.size}")
    print(f"containment: {'yes' if contained else 'no'}")
    return EXIT_OK if contained else EXIT_NO_PATH


def run_batch(args) -> int:
    rows = []
    worst = EXIT_OK
    out = _out_dir(args)
    for path in args.scenario:
        sc = _load_scenario(path, args.override)
        result = plan(sc.ground_truth(), sc.start, sc.target, sc.planner_config())
        header, row = metrics_text(result).splitlines()
        rows.append(f"{Path(path).name},{result.status},{row}")
        worst = max(worst, _status_code(result))
        print(f"{path}: {result.status}")
    table = "scenario,status," + header + "\n" + "\n".join(rows) + "\n"
    if out is not None:
        (out / "batch_metrics.csv").write_text(table)
    else:
        print(table, end="")
    return worst


def run_validate(args) -> int:
    _load_scenario(args.scenario, args.override)
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latticeplan",
        description="Potential-guided lattice-tree planning in unknown environments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi=False):
        if multi:
            p.add_argument("--scenario", nargs="+", required=True,
                           help="scenario file(s)")
        else:
            p.add_argument("--scenario", required=True, help="scenario file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario directive")

    p_plan = sub.add_parser("plan", help="run the replanning loop")
    common(p_plan)
    p_plan.add_argument("--svg", action="store_true", help="write per-round SVGs")
    p_plan.add_argument("--metrics", action="store_true", help="write metrics CSV")
    p_plan.set_defaults(func=run_plan)

    p_region = sub.add_parser("region", help="build the bounded search region")
    common(p_region)
    p_region.add_argument("--svg", action="store_true", help="write a region SVG")
    p_region.set_defaults(func=run_region)

    p_batch = sub.add_parser("batch", help="plan several scenarios")
    common(p_batch, multi=True)
    p_batch.set_defaults(func=run_batch)

    p_val = sub.add_parser("validate", help="parse-check a scenario file")
    common(p_val)
    p_val.set_defaults(func=run_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ModelViolationError as exc:
        print(f"scenario error: {exc}; raise sensing_radius to at least the "
              "motion pitch step/10", file=sys.stderr)
        return EXIT_SCENARIO
    except MemoryError as exc:
        print(f"resource limit: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PlanningError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
