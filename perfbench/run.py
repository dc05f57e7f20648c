"""Benchmark of latticeplan: four workloads through the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs as a closed loop, one client and one operation at a
time, in a fresh worker process (`worker.py`); processes run one at a time.

With `--trace 0` the last line of standard output holds the end-to-end
metrics.  Set-up time is the median over SETUP_PROBES extra processes that
only set up, plus the measuring process itself.  With `--trace 1` the worker
wraps the library's public functions and the metrics are per-layer calls,
self times and counts, per pass over the inputs; its spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import scenes  # noqa: E402
import tracer  # noqa: E402
from worker import MIN_PASSES  # noqa: E402

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def run_worker(args, extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies, min_samples: int) -> float:
    """The percentile with ten samples beyond it in a run of `min_samples`
    operations; longer runs have proportionally more beyond it."""
    xs = sorted(latencies)
    beyond = max(10, (10 * len(xs)) // min_samples)
    return xs[len(xs) - beyond - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latticeplan" / "__init__.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.npz"
        res = run_worker(args, ["--spans", str(spans)])
        metrics = {name: {"value": res["layers"].get(name, 0.0),
                          "unit": "s" if name.endswith(".self_s") else "count"}
                   for name in tracer.PER_LAYER}
        lat = res["latencies"]
        print(f"traced ops_per_s {(len(lat) - res['failed']) / math.fsum(lat):.6g}",
              file=sys.stderr)
    else:
        setups = [run_worker(args, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(args, [])
        setups.append(res["setup_s"])
        lat = res["latencies"]
        n_min = MIN_PASSES * res["ops_per_pass"]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": ((len(lat) - res["failed"]) / math.fsum(lat), "1/s"),
            "op_s_p50": (statistics.median(lat), "s"),
            "op_s_tail": (tail(lat, n_min), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not res["problems"], "attempted": len(res["latencies"]),
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
