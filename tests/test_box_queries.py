"""Every obstacle query on the cached corner arrays equals a per-box loop.

The oracles below test one box at a time: `_contains` and `_distance_to`
are the point-in-box and point-to-box bodies of the one-box obstacle type,
and segments go through the scalar `segment_hits_box`.  Worlds are drawn
on a 1/8 grid, so points on faces, segments along faces, boxes and
segments with zero-length axes and distances equal to the sensing radius
all occur.  Distances are compared exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import latticeplan as lp
from latticeplan.environment import distance_to_revealed, sense
from latticeplan.geometry import (formation_segment_feasible, multi_robot_feasible,
                                  point_feasible, segment_feasible, segment_hits_box)
from latticeplan.planner import _first_blocking_index
from latticeplan.trap_escape import _clearances


def _contains(lo, hi, p) -> bool:
    return bool(np.all(lo < p) and np.all(p < hi))


def _distance_to(lo, hi, p) -> float:
    d = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return float(np.linalg.norm(d))


def _revealed_boxes(env):
    return [env.truth.primitives[i] for i in sorted(env.revealed)]


def _robots(x, env):
    return list(np.asarray(x, dtype=float).reshape(-1, env.dim))


def oracle_point_feasible(x, env) -> bool:
    for pos in _robots(x, env):
        if np.any(pos < env.bounds_lo) or np.any(pos > env.bounds_hi):
            return False
        if any(_contains(b.lo, b.hi, pos) for b in _revealed_boxes(env)):
            return False
    return True


def oracle_segment_feasible(a, b, env) -> bool:
    return not any(segment_hits_box(ra, rb, box.lo, box.hi)
                   for ra, rb in zip(_robots(a, env), _robots(b, env))
                   for box in _revealed_boxes(env))


def oracle_multi_robot_feasible(x, env, dmin, dmax) -> bool:
    pos = _robots(x, env)
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            d = float(np.linalg.norm(pos[i] - pos[j]))
            if d < dmin or d > dmax:
                return False
            if any(segment_hits_box(pos[i], pos[j], b.lo, b.hi) for b in _revealed_boxes(env)):
                return False
    return True


def oracle_formation_segment_feasible(a, b, env, dmin, dmax, link_step) -> bool:
    if not oracle_segment_feasible(a, b, env):
        return False
    if dmin is None or dmax is None:
        return True
    pa, pb = _robots(a, env), _robots(b, env)
    k = len(pa)
    for i in range(k):
        for j in range(i + 1, k):
            if not lp.geometry._pair_distance_band_over_motion(pa[i], pb[i], pa[j], pb[j],
                                                               dmin, dmax):
                return False
    steps = max(int(np.ceil(lp.distance(a, b) / link_step)), 1)
    for s in range(steps + 1):
        t = s / steps
        pos = [pa[i] + t * (pb[i] - pa[i]) for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if any(segment_hits_box(pos[i], pos[j], box.lo, box.hi)
                       for box in _revealed_boxes(env)):
                    return False
    return True


def oracle_sense(known, x) -> frozenset:
    new = set(known.revealed)
    for i, box in enumerate(known.truth.primitives):
        if any(_distance_to(box.lo, box.hi, pos) <= known.sensing_radius
               for pos in _robots(x, known)):
            new.add(i)
    return frozenset(new)


def oracle_distance_to_revealed(x, known) -> float:
    boxes = _revealed_boxes(known)
    if not boxes:
        return float("inf")
    return min(_distance_to(b.lo, b.hi, pos) for pos in _robots(x, known) for b in boxes)


def oracle_first_blocking_index(samples, known):
    for j, (a, b) in enumerate(zip(samples, samples[1:])):
        pb = _robots(b, known)
        links = [(pb[i], pb[m]) for i in range(len(pb)) for m in range(i + 1, len(pb))]
        segments = list(zip(_robots(a, known), pb)) + links
        if any(segment_hits_box(s, e, box.lo, box.hi)
               for s, e in segments for box in _revealed_boxes(known)):
            return j
    return None


@st.composite
def box_worlds(draw):
    """A seeded world: 2-D or 3-D, 1-3 robots, 0-12 boxes, some revealed,
    and configurations reaching 1/8 past the unit workspace, most of them
    on a 1/8 grid."""
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 3))
    nbox = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = np.sort(rng.integers(0, 9, (nbox, 2, dim)), axis=1) / 8
    boxes = [lp.ObstaclePrimitive.box(lo, hi, known=bool(rng.integers(2)))
             for lo, hi in corners]
    truth = lp.GroundTruth.create(dim, np.zeros(dim), np.ones(dim), boxes)
    revealed = frozenset(np.flatnonzero(rng.integers(0, 2, nbox)).tolist())
    env = lp.KnownEnvironment(truth=truth, revealed=revealed,
                              sensing_radius=rng.integers(1, 4) / 8)
    # Off-grid configurations give distances that rounding could change.
    configs = np.concatenate([rng.integers(-1, 10, (6, k * dim)) / 8,
                              rng.uniform(-0.125, 1.125, (3, k * dim))])
    # Moves along one axis only give segments with zero-length axes.
    axis_moves = configs.copy()
    axis_moves[np.arange(9), rng.integers(0, k * dim, 9)] = rng.integers(-1, 10, 9) / 8
    return env, configs, axis_moves


@settings(max_examples=300, deadline=None)
@given(box_worlds())
def test_obstacle_queries_equal_per_box_loops(world):
    env, configs, axis_moves = world
    # A tight band rejects most random formations; a loose one leaves every
    # link to the box test.
    bands = [(1 / 8, 5 / 8), (0.0, 2.0)]
    for x in configs:
        assert point_feasible(x, env) == oracle_point_feasible(x, env)
        for dmin, dmax in bands:
            assert multi_robot_feasible(x, env, dmin, dmax) == \
                oracle_multi_robot_feasible(x, env, dmin, dmax)
        assert sense(env, x).revealed == oracle_sense(env, x)
        assert distance_to_revealed(x, env) == oracle_distance_to_revealed(x, env)
    assert _clearances(configs, env).tolist() == \
        [oracle_distance_to_revealed(x, env) for x in configs]
    pairs = list(zip(configs, axis_moves)) + list(zip(configs, configs[::-1]))
    for a, b in pairs:
        assert segment_feasible(a, b, env) == oracle_segment_feasible(a, b, env)
        for band in bands + [(None, None)]:
            assert formation_segment_feasible(a, b, env, *band, 1 / 16) == \
                oracle_formation_segment_feasible(a, b, env, *band, 1 / 16)
    samples = [row for pair in pairs for row in pair]
    for start in range(0, len(samples), 3):
        want = oracle_first_blocking_index(samples[start:], env)
        assert _first_blocking_index(samples, start, env) == \
            (None if want is None else start + want)
