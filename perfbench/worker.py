"""One workload in one fresh process: set up, then a closed loop of timed
operations, one at a time, in whole passes over the seeded inputs.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N
        --seconds S --t0 T [--setup-only] [--spans FILE]

`--t0` is the parent's `time.perf_counter()` taken just before it started
this process; set-up time runs from there to the first timed operation.
`--spans FILE` traces the run and writes its spans to FILE.
The last line of standard output is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy as np

import checks
import scenes
from tracer import Tracer

perf = time.perf_counter

# Fewest passes in a run.  The second pass is compared with the first, and
# with 20 or more inputs per pass a run holds at least 40 operations.
MIN_PASSES = 2


class Op:
    """One input of the pass: what the program is asked, and the checks."""

    def __init__(self, workload: str, inp, lp):
        self.workload, self.inp, self.lp = workload, inp, lp
        sc = lp.scenario.parse_scenario(inp.text)
        self.sc = sc
        self.truth = sc.ground_truth()
        self.cfg = sc.planner_config()
        if workload == "region-scenes":
            # Precomputed in set-up: the trajectory the region must contain.
            res = lp.planner.plan(self.truth, sc.start, sc.target, self.cfg)
            if res.status != "success":
                raise RuntimeError(f"region scene could not be planned: {res.status}")
            self.traj = res.full_trajectory
            self.full = lp.environment.KnownEnvironment.initial(
                self.truth, sc.sensing_radius).fully_revealed()
        self.fingerprint = None

    def run(self):
        lp, sc = self.lp, self.sc
        if self.workload == "region-scenes":
            fpe = lp.fpe
            lat = fpe.Lattice.build(self.full, sc.start, sc.step, sc.target)
            region = fpe.build_region(sc.start, sc.target, lat, beta=sc.beta)
            return region, fpe.contains_path(region, self.traj)
        return lp.planner.plan(self.truth, sc.start, sc.target, self.cfg)

    def failed(self, out) -> bool:
        """The program did not answer as this workload's inputs require."""
        if self.workload == "region-scenes":
            return False
        want = "no-feasible-path" if self.workload == "sealed-rooms" else "success"
        return out.status != want

    def check(self, out, vertices) -> list:
        """Problems with the output; the first pass is checked in full and
        later passes must reproduce the first pass's text exactly."""
        lp, inp = self.lp, self.inp
        if self.workload == "region-scenes":
            region, contained = out
            text = lp.fpe.region_dump(region)
        else:
            text = lp.planner.trajectory_text(out)
        if self.fingerprint is not None:
            return [] if text == self.fingerprint else ["output differs from the first pass"]
        self.fingerprint = text
        if self.workload == "region-scenes":
            return checks.region_problems(inp, np.asarray(self.traj), contained,
                                          region.lattice.coords, region.nodes,
                                          region.steady_rho)
        if self.workload == "sealed-rooms":
            return checks.sealed_problems(inp, out.status, vertices)
        stops = [(s.motion.stop_point, s.motion.stop_clearance)
                 for s in out.segments if s.motion.status == "blocked"]
        episodes = sum(len(s.graph.escape_log) for s in out.segments)
        return checks.plan_problems(inp, out.status, np.asarray(out.full_trajectory),
                                    stops, episodes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    # -- set-up: import, generate, parse, precompute, warm up ----------------
    sys.path.insert(0, args.src)
    import latticeplan as lp
    import latticeplan.fpe  # noqa: F401  (not imported by the package itself)
    import latticeplan.scenario  # noqa: F401

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(lp)
    ops = [Op(args.workload, inp, lp)
           for inp in scenes.pass_inputs(args.workload, args.seed)]
    # Warm-up: one untimed operation lets lazy set-up finish before timing.
    ops[0].run()
    gc.collect()
    first_timed = perf()
    setup_s = first_timed - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -- the timed closed loop ----------------------------------------------
    mark = tracer.mark() if tracer else 0
    counts0 = dict(tracer.counts) if tracer else {}
    latencies, problems = [], []
    failed = passes = 0
    gc.disable()
    while passes < MIN_PASSES or perf() - first_timed < args.seconds:
        for i, op in enumerate(ops):
            before = tracer.counts["graph.vertices"] if tracer else 0
            t = perf()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises has failed
                latencies.append(perf() - t)
                failed += 1
                print(f"{op.inp.family}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            latencies.append(perf() - t)
            if op.failed(out):
                failed += 1
            else:
                vertices = tracer.counts["graph.vertices"] - before if tracer else None
                problems += [f"{op.inp.family} #{i}: {p}"
                             for p in op.check(out, vertices)]
            del out
            gc.collect()
        passes += 1
    gc.enable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "latencies": latencies, "passes": passes,
              "ops_per_pass": len(ops), "failed": failed, "problems": problems,
              "peak_rss_mb": peak_rss_mb}
    if tracer:
        per = tracer.self_times(mark)
        setup_self = tracer.self_times(0, mark)
        layer = {}
        for metric, value in tracer.counts.items():
            layer[metric] = (value - counts0.get(metric, 0)) / passes
        for name, value in per.items():
            layer[f"{name}.self_s"] = value / passes
        # Parsing happens once per input, in set-up.
        layer["scenario.parse_scenario.self_s"] = setup_self.get("scenario.parse_scenario", 0.0)
        result["layers"] = layer
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
