"""Spans and counts recorded from outside the program.

`Tracer.install` rebinds the module (and class) attributes through which the
program looks up its public functions, so every call made through them opens
a span: name, start, end and the span open when it began.  Spans are kept in
flat arrays in memory and written out once, when the run ends.  The self
time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

# Functions that get a span and a `.calls` count, as (module, attribute).
# Geometry and environment functions are rebound in every module that
# imported them, so they are counted wherever they are looked up.
SPANNED = [
    ("scenario", "parse_scenario"),
    ("environment", "sense"),
    ("environment", "distance_to_revealed"),
    ("planner", "plan"),
    ("planner", "move_along"),
    ("planner", "_first_blocking_index"),
    ("graph", "generate_graph"),
    ("graph", "candidate_admissible"),
    ("graph", "target_linkable"),
    ("geometry", "point_feasible"),
    ("geometry", "segment_feasible"),
    ("geometry", "multi_robot_feasible"),
    ("geometry", "formation_segment_feasible"),
    ("geometry", "segments_hit_boxes"),
    ("pathfind", "backtrace"),
    ("trap_escape", "escape_near_obstacle"),
    ("trap_escape", "escape_fixed_shape"),
    ("fpe", "gradient_region"),
    ("fpe", "evolve_to_steady"),
    ("fpe", "fpe_step"),
    ("fpe", "cfl_dt"),
    ("fpe", "diffusion_region"),
    ("fpe", "build_region"),
    ("fpe", "contains_path"),
]
MODULES = ("geometry", "environment", "graph", "pathfind", "planner",
           "trap_escape", "fpe", "scenario")

# Per-layer metric names, as BENCHMARK.json lists them.
SELF_TIMES = [
    "scenario.parse_scenario", "environment.sense", "planner.move_along",
    "planner._first_blocking_index", "graph.generate_graph",
    "graph.SearchGraph.argmin_unexpanded", "graph.candidate_admissible",
    "graph.target_linkable", "geometry.point_feasible", "geometry.segment_feasible",
    "geometry.multi_robot_feasible", "geometry.formation_segment_feasible",
    "geometry.segments_hit_boxes", "pathfind.backtrace",
    "trap_escape.escape_near_obstacle", "trap_escape.escape_fixed_shape",
    "fpe.Lattice.build", "fpe.gradient_region", "fpe.gibbs_steady", "fpe.fpe_step",
    "fpe.cfl_dt", "fpe.diffusion_region", "fpe.contains_path",
]
CALLS = [
    "environment.sense", "planner.move_along", "planner._first_blocking_index",
    "graph.generate_graph", "graph.SearchGraph.argmin_unexpanded",
    "graph.candidate_admissible", "graph.target_linkable", "geometry.point_feasible",
    "geometry.segment_feasible", "geometry.multi_robot_feasible",
    "geometry.formation_segment_feasible", "geometry.segments_hit_boxes",
    "trap_escape.escape_near_obstacle", "trap_escape.escape_fixed_shape",
    "fpe.gradient_region", "fpe.evolve_to_steady", "fpe.fpe_step", "fpe.cfl_dt",
    "fpe.diffusion_region",
]
COUNTS = [
    "environment.sense.reveals", "planner.motion_samples",
    "graph.candidate_admissible.admitted", "graph.vertices",
    "trap_escape.vertices_added", "fpe.lattice_nodes",
    "fpe.evolve_to_steady.iterations", "fpe.fpe_step.bytes_computed",
    "fpe.region_nodes",
]
PER_LAYER = ([f"{n}.self_s" for n in SELF_TIMES] + [f"{n}.calls" for n in CALLS]
             + COUNTS)


def _fpe_step_bytes(result, args, kwargs) -> int:
    """Bytes one explicit step reads and writes, computed from array sizes:
    density, potential and the new density (8 B per node each), edge index
    pairs (16 B per edge) and edge weights (8 B per edge)."""
    lat = args[1]
    return 24 * lat.size + 24 * lat.edges.shape[0]


# Counts taken from a call's result: (span name, metric, f(result, args, kwargs)).
RESULT_COUNTS = [
    ("environment.sense", "environment.sense.reveals", lambda r, a, k: int(r is not a[0])),
    ("planner.move_along", "planner.motion_samples", lambda r, a, k: len(r[0].traversed) - 1),
    ("graph.candidate_admissible", "graph.candidate_admissible.admitted",
     lambda r, a, k: int(r)),
    ("trap_escape.escape_near_obstacle", "trap_escape.vertices_added", lambda r, a, k: len(r)),
    ("trap_escape.escape_fixed_shape", "trap_escape.vertices_added", lambda r, a, k: len(r)),
    ("fpe.Lattice.build", "fpe.lattice_nodes", lambda r, a, k: r.size),
    ("fpe.evolve_to_steady", "fpe.evolve_to_steady.iterations", lambda r, a, k: r.iterations),
    ("fpe.fpe_step", "fpe.fpe_step.bytes_computed", _fpe_step_bytes),
    ("fpe.build_region", "fpe.region_nodes", lambda r, a, k: len(r.nodes)),
]


class Tracer:
    """In-memory span recorder plus per-metric counters."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, counters=(),
             rename: Optional[Callable[[int], str]] = None) -> Callable:
        """Span-recording wrapper around fn.  `counters` are (metric, f)
        pairs added from each result; `rename(parent_name_id)` may give the
        span another name according to the span it runs under."""
        nid = self._id(name)
        calls = f"{name}.calls"
        perf = time.perf_counter
        stack, counts = self._stack, self.counts
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            names.append(nid if rename is None
                         else self._id(rename(names[parent] if parent >= 0 else -1)))
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            counts[calls] += 1
            for metric, f in counters:
                counts[metric] += f(result, args, kwargs)
            return result

        return wrapper

    def install(self, lp) -> None:
        """Rebind the traced attributes of the `latticeplan` package `lp`."""
        mods = {m: getattr(lp, m) for m in MODULES}
        counters: Dict[str, list] = {}
        for span, metric, f in RESULT_COUNTS:
            counters.setdefault(span, []).append((metric, f))
        build_region = self._id("fpe.build_region")

        def evolve_name(parent_id: int) -> str:
            # The beta > 0 evolution that build_region runs itself is the
            # Gibbs steady state; the others belong to their caller.
            return "fpe.gibbs_steady" if parent_id == build_region else "fpe.evolve_to_steady"

        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            original = getattr(mods[mod], attr)
            wrapper = self.wrap(name, original, counters.get(name, ()),
                                evolve_name if name == "fpe.evolve_to_steady" else None)
            for target in [lp] + list(mods.values()):
                if getattr(target, attr, None) is original:
                    setattr(target, attr, wrapper)
        sg = mods["graph"].SearchGraph
        sg.argmin_unexpanded = self.wrap("graph.SearchGraph.argmin_unexpanded",
                                         sg.argmin_unexpanded)
        insert = sg.insert

        def counted_insert(g, *args, **kwargs):
            self.counts["graph.vertices"] += 1
            return insert(g, *args, **kwargs)

        sg.insert = counted_insert
        lattice = mods["fpe"].Lattice
        lattice.build = staticmethod(self.wrap("fpe.Lattice.build", lattice.build,
                                               counters.get("fpe.Lattice.build", ())))

    # -- reading the record --------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to what follows."""
        return len(self.start)

    def self_times(self, first: int = 0, last: Optional[int] = None) -> Dict[str, float]:
        """Summed self time per span name over spans [first, last)."""
        start, end = np.array(self.start), np.array(self.end)
        parent, name = np.array(self.parent), np.array(self.name)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.shape[0])
        own = (dur - child)[first:last]
        per = np.bincount(name[first:last], weights=own, minlength=len(self.names))
        return {n: float(per[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))
