"""Every obstacle query on the cached corner arrays equals a per-box loop.

The oracles in `geometry_oracles` test one box at a time.  Worlds are drawn
on a 1/8 grid, so points on faces, segments along faces, boxes and
segments with zero-length axes and distances equal to the sensing radius
all occur.  Distances are compared exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import latticeplan as lp
from latticeplan import geometry
from latticeplan.environment import clearances, distance_to_revealed, sense
from latticeplan.geometry import (formation_segment_feasible, multi_robot_feasible,
                                  point_feasible, rows_formation_feasible,
                                  rows_multi_robot_feasible, rows_point_feasible,
                                  rows_segment_feasible, segment_feasible)
from latticeplan.planner import _first_blocking_index

from geometry_oracles import (oracle_distance_to_revealed, oracle_first_blocking_index,
                              oracle_formation_motion_feasible,
                              oracle_formation_segment_feasible, oracle_multi_robot_feasible,
                              oracle_point_feasible, oracle_segment_feasible, oracle_sense)


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
    assert clearances(configs, env).tolist() == \
        [oracle_distance_to_revealed(x, env) for x in configs]
    pairs = list(zip(configs, axis_moves)) + list(zip(configs, configs[::-1]))
    for a, b in pairs:
        assert segment_feasible(a, b, env) == oracle_segment_feasible(a, b, env)
        for band in bands + [(None, None)]:
            assert formation_segment_feasible(a, b, env, *band, 1 / 16) == \
                oracle_formation_segment_feasible(a, b, env, *band, 1 / 16)
    samples = [row for pair in pairs for row in pair]
    for start in range(0, len(samples), 3):
        want, rows = oracle_first_blocking_index(samples[start:], env)
        got, got_rows = _first_blocking_index(samples, start, env)
        assert got == (None if want is None else start + want)
        assert got_rows.tolist() == rows


LINK_STEP = 1 / 16


def formation_batch(rng, dim: int, k: int, nbox: int, thin: int):
    """A batch of formation moves (a, b), each (N, n): k robots in dim
    dimensions, nbox boxes on a 1/8 grid plus `thin` off-grid ones, and
    start rows on a 1/8 grid or off it.  The moves step one coordinate by
    1/8, translate the whole formation (every pair's motion has zero
    length), translate one robot, or move at random, with some lengths
    scaled to land within a few ulps below, on or above a whole number of
    link steps."""
    n = k * dim
    corners = list(np.sort(rng.integers(0, 9, (nbox, 2, dim)), axis=1) / 8)
    for _ in range(thin):
        lo = rng.uniform(0, 0.9, dim)
        hi = lo + rng.uniform(0.005, 0.4, dim)
        hi[rng.integers(dim)] = lo[rng.integers(dim)] + rng.uniform(0.001, 0.02)
        corners.append(np.sort([lo, hi], axis=0))
    boxes = [lp.ObstaclePrimitive.box(lo, hi) for lo, hi in corners]
    truth = lp.GroundTruth.create(dim, np.zeros(dim), np.ones(dim), boxes)
    env = lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()
    rows = 24
    a = np.concatenate([rng.integers(0, 9, (rows // 2, n)) / 8,
                        rng.uniform(0.0, 1.0, (rows - rows // 2, n))])
    move = np.zeros((rows, n))
    move[np.arange(rows), rng.integers(0, n, rows)] = rng.choice([-1 / 8, 1 / 8], rows)
    kind = rng.integers(0, 4, rows)
    shift = rng.uniform(-0.3, 0.3, (rows, dim))
    rigid = kind == 1
    move[rigid] = np.tile(shift[rigid], k)
    one = np.flatnonzero(kind == 2)
    move[one] = 0.0
    for r, robot in zip(one, rng.integers(0, k, one.shape[0])):
        move[r, robot * dim:(robot + 1) * dim] = shift[r]
    wild = kind == 3
    move[wild] = rng.uniform(-0.3, 0.3, (int(wild.sum()), n))
    # Lengths of m link steps times (1 + e), e a few ulps either side of 0.
    scaled = rng.random(rows) < 0.5
    length = np.sqrt(np.vecdot(move, move))
    target = LINK_STEP * rng.integers(1, 6, rows) * (1 + rng.integers(-4, 5, rows) * 2.0**-52)
    move[scaled] *= (target / np.where(length > 0, length, 1.0))[scaled, None]
    move[rng.random(rows) < 0.05] = 0.0  # no motion at all
    return env, a, a + move


@st.composite
def formation_batches(draw):
    """`formation_batch` in 2-D or 3-D, with 2-4 robots and 0-6 grid boxes
    (the empty set included) plus 0-2 thin ones."""
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return formation_batch(rng, dim, k, draw(st.integers(0, 6)), draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(formation_batches())
def test_batched_formation_kernel_equals_scalar_tests(batch):
    """Row by row, every `rows_*` test equals its scalar oracle; the bands
    put exact grid distances on dmin and dmax."""
    env, a, b = batch
    assert rows_point_feasible(b, env).tolist() == [oracle_point_feasible(y, env) for y in b]
    assert rows_segment_feasible(a, b, env).tolist() == \
        [oracle_segment_feasible(x, y, env) for x, y in zip(a, b)]
    for dmin, dmax in [(1 / 8, 5 / 8), (0.0, 2.0), (1 / 4, 1 / 2)]:
        assert rows_multi_robot_feasible(b, env, dmin, dmax).tolist() == \
            [oracle_multi_robot_feasible(y, env, dmin, dmax) for y in b]
        want = [oracle_formation_segment_feasible(x, y, env, dmin, dmax, LINK_STEP)
                for x, y in zip(a, b)]
        assert rows_formation_feasible(a, b, env, dmin, dmax, LINK_STEP).tolist() == want
        # Any subset of rows, empty included, gives the same answers.
        keep = np.flatnonzero(np.arange(len(a)) % 3 == 1)
        assert rows_formation_feasible(a[keep], b[keep], env, dmin, dmax,
                                       LINK_STEP).tolist() == [want[r] for r in keep]
        assert rows_formation_feasible(a[:0], b[:0], env, dmin, dmax, LINK_STEP).shape == (0,)


def test_formation_kernel_slab_tests_only_rows_near_a_box(monkeypatch):
    """On batches with boxes, some rows in the band pass the clearance test
    without a slab test and others reach it, and every answer equals the
    scalar oracle."""
    owners_blocked, reached = geometry._owners_blocked, []

    def counting(starts, ends, owner, env, rows):
        reached.append(owner)
        return owners_blocked(starts, ends, owner, env, rows)

    monkeypatch.setattr(geometry, "_owners_blocked", counting)
    clear = tested = 0
    for seed in range(40):
        env, a, b = formation_batch(np.random.default_rng(seed), 2 + seed % 2, 2 + seed % 3,
                                    1 + seed % 4, seed % 3)
        for dmin, dmax in [(1 / 8, 5 / 8), (0.0, 2.0), (1 / 4, 1 / 2)]:
            reached.clear()
            got = rows_formation_feasible(a, b, env, dmin, dmax, LINK_STEP)
            assert got.tolist() == [
                oracle_formation_segment_feasible(x, y, env, dmin, dmax, LINK_STEP)
                for x, y in zip(a, b)]
            slabbed = set(np.concatenate(reached).tolist()) if reached else set()
            clear += len(set(np.flatnonzero(got).tolist()) - slabbed)
            tested += len(slabbed)
    assert clear > 0 and tested > 0, (clear, tested)


def test_formation_kernel_clearance_literals():
    """Two robots 1/2 apart moving along x.  A box that only a mid-motion
    link sample crosses, or only a robot's own segment, rejects the move
    though the box spanned by either end alone is clear of it; boxes whose
    faces the clearance box touches exactly admit it.  A box that only the
    link at the end point itself crosses rejects it too."""
    def env_of(*boxes):
        truth = lp.GroundTruth.create(2, np.zeros(2), np.ones(2),
                                      [lp.ObstaclePrimitive.box(lo, hi) for lo, hi in boxes])
        return lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()

    def admits(a, b, env):
        a, b = np.array([a]), np.array([b])
        got = bool(rows_formation_feasible(a, b, env, 1 / 4, 1.0, LINK_STEP)[0])
        assert got == oracle_formation_segment_feasible(a[0], b[0], env, 1 / 4, 1.0, LINK_STEP)
        return got

    a = [0.0, 1 / 4, 0.0, 3 / 4]
    across = [1.0, 1 / 4, 1.0, 3 / 4]  # link samples at x = m / 23
    mid_link = env_of(([3 / 8, 3 / 8], [5 / 8, 5 / 8]))
    assert oracle_segment_feasible(a, across, mid_link)
    assert not admits(a, across, mid_link)
    short = [1 / 8, 1 / 4, 1 / 8, 3 / 4]  # link samples at x = 0, 1/24, 1/12, 1/8
    own_segment = env_of(([3 / 64, 3 / 16], [5 / 64, 5 / 16]))
    assert oracle_formation_motion_feasible(a, short, own_segment, 1 / 4, 1.0, LINK_STEP)
    assert not admits(a, short, own_segment)
    faces = env_of(([1 / 8, 0.0], [1 / 2, 1.0]), ([0.0, 3 / 4], [1 / 8, 1.0]),
                   ([-1 / 2, 0.0], [0.0, 1.0]))
    assert admits(a, short, faces)
    # From x = 0.1 to 0.45 the last link sample sits at 0.1 + (0.45 - 0.1),
    # one ulp below 0.45: a box with its face there holds only the link at b.
    face, start, end = 0.1 + (0.45 - 0.1), [0.1, 1 / 4, 0.1, 3 / 4], [0.45, 1 / 4, 0.45, 3 / 4]
    end_link = env_of(([face, 3 / 8], [0.6, 5 / 8]))
    assert face < 0.45
    assert oracle_formation_motion_feasible(start, end, end_link, 1 / 4, 1.0, LINK_STEP)
    assert not admits(start, end, end_link)

