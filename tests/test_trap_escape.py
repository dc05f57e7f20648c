"""The two restricted-expansion escape strategies and their shared pieces."""

from itertools import combinations
from math import sqrt

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import graph, trap_escape
from latticeplan.environment import distance_to_revealed
from latticeplan.geometry import point_feasible, segment_feasible
from latticeplan.graph import (GenConfig, candidate_admissible, candidate_open, generate_graph,
                               group_steps, move_rows)
from latticeplan.trap_escape import TrapEscapePolicy

from conftest import make_deadend
from test_graph import lattice_key, step_moves


def _axis_steps(k, dim=2):
    return group_steps([[r] for r in range(k)], dim, k * dim)


def _pocket_world():
    # U-shaped pocket opening toward the start, target behind the back wall.
    prims = [lp.ObstaclePrimitive.box([0.5, 0.3], [0.55, 0.7], known=True),
             lp.ObstaclePrimitive.box([0.3, 0.3], [0.5, 0.35], known=True),
             lp.ObstaclePrimitive.box([0.3, 0.65], [0.5, 0.7], known=True)]
    return lp.GroundTruth.create(2, [0, 0], [1, 1], prims)


def test_near_obstacle_episode_respects_shell():
    """Every vertex added during a wall-hug episode stays within its epsilon."""
    truth = _pocket_world()
    env = lp.KnownEnvironment.initial(truth, 0.1)
    cfg = GenConfig(step=0.03)
    g = generate_graph([0.4, 0.5], [0.9, 0.5], env, cfg,
                       escape=TrapEscapePolicy(mode="near-obstacle"))
    assert g is not None and g.target_id is not None
    assert g.escape_log, "the pocket must trigger at least one escape episode"
    for ep in g.escape_log:
        assert ep["mode"] == "near-obstacle"
        assert ep["epsilon"] >= 0.5 * 0.03 - 1e-12


def test_near_obstacle_added_vertices_near_revealed():
    truth = _pocket_world()
    env = lp.KnownEnvironment.initial(truth, 0.1)
    cfg = GenConfig(step=0.03)
    esc = generate_graph([0.4, 0.5], [0.9, 0.5], env, cfg,
                         escape=TrapEscapePolicy(mode="near-obstacle"))
    assert esc.target_id is not None
    checked = 0
    for ep in esc.escape_log:
        for v in ep["new_ids"]:
            if v == esc.target_id:
                continue
            assert distance_to_revealed(esc.coords[v], env) <= ep["epsilon"] + 1e-12
            checked += 1
    assert checked > 0


def test_fixed_shape_added_vertices_preserve_offsets():
    truth, start, target = make_deadend()
    cfg = lp.PlannerConfig(step=0.04, sensing_radius=0.12,
                           escape=lp.TrapEscapePolicy(mode="fixed-shape"))
    res = lp.plan(truth, start, target, cfg)
    assert res.status == "success"
    logged = [(s.graph, ep) for s in res.segments for ep in s.graph.escape_log]
    assert logged
    checked = 0
    for g, ep in logged:
        ref = g.coords[ep["trap"]]
        off_ref = ref[:2] - ref[2:]
        for v in ep["rigid_ids"]:
            if v == g.target_id:
                continue
            off = g.coords[v][:2] - g.coords[v][2:]
            assert np.max(np.abs(off - off_ref)) <= 1e-12
            checked += 1
    assert checked > 0


def test_fixed_shape_requires_multiple_robots():
    env = lp.KnownEnvironment.initial(lp.GroundTruth.create(2, [0, 0], [1, 1], []), 0.1)
    g = lp.SearchGraph(np.array([0.2, 0.5]), np.array([0.9, 0.5]), 0.03)
    g.insert(np.array([0.2, 0.5]), 0.7, None, (0, 0))
    with pytest.raises(ValueError):
        lp.trap_escape.escape_fixed_shape(g, 0, env, GenConfig(step=0.03))


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TrapEscapePolicy(mode="sideways")


def test_escape_reduces_vertices_in_deadend():
    truth, start, target = make_deadend()
    base = lp.plan(truth, start, target,
                   lp.PlannerConfig(step=0.04, sensing_radius=0.12))
    esc = lp.plan(truth, start, target,
                  lp.PlannerConfig(step=0.04, sensing_radius=0.12,
                                   escape=lp.TrapEscapePolicy(mode="fixed-shape")))
    assert base.status == esc.status == "success"
    assert esc.metrics["max_vertices"] < base.metrics["max_vertices"]


def test_near_obstacle_escape_with_two_robots():
    truth, start, target = make_deadend()
    res = lp.plan(truth, start, target,
                  lp.PlannerConfig(step=0.08, sensing_radius=0.12,
                                   escape=TrapEscapePolicy(mode="near-obstacle")))
    assert res.status == "success"
    # Replay the sensing to recover what each tree was grown against.
    known = lp.sense(lp.KnownEnvironment.initial(truth, 0.12), start)
    checked = 0
    for seg in res.segments:
        g = seg.graph
        for ep in g.escape_log:
            assert ep["mode"] == "near-obstacle"
            for v in ep["new_ids"]:
                if v != g.target_id:
                    assert distance_to_revealed(g.coords[v], known) <= ep["epsilon"] + 1e-12
                    checked += 1
        for x in seg.motion.traversed:
            known = lp.sense(known, x)
    assert checked > 0
    gaps = [np.linalg.norm(x[:2] - x[2:]) for x in res.full_trajectory]
    assert 0.03 - 1e-12 <= min(gaps) and max(gaps) <= 0.13 + 1e-12


def test_near_obstacle_escape_with_two_robots_at_fine_pitch():
    """Two robots wall-hugging out of the dead end at step 0.04, through
    about 1,500 escape episodes, keep inside the formation band."""
    truth, start, target = make_deadend()
    res = lp.plan(truth, start, target,
                  lp.PlannerConfig(step=0.04, sensing_radius=0.12,
                                   escape=TrapEscapePolicy(mode="near-obstacle")))
    assert res.status == "success"
    assert sum(len(s.graph.escape_log) for s in res.segments) > 1000
    gaps = [np.linalg.norm(x[:2] - x[2:]) for x in res.full_trajectory]
    assert 0.03 - 1e-12 <= min(gaps) and max(gaps) <= 0.13 + 1e-12


# -- the batched escape pieces against the per-vertex loops they replaced ----

def _near_top_loop(g, pool):
    """Pool vertices within sqrt(2) steps of the top vertex, one `distance`
    each; the top is the highest potential, then the lowest id."""
    y = max(pool, key=lambda v: (g.potential_of(v), -v))
    radius = sqrt(2.0) * g.step + trap_escape._TIE
    return [x for x in pool if not lp.distance(g.coords[x], g.coords[y]) > radius]


def _in_escape_set_loop(g, pool, env, steps):
    if not pool:
        return False
    for x in _near_top_loop(g, pool):
        p_x = g.potential_of(x)
        for q, _ in step_moves(g, x, steps):
            if lp.distance(q, g.target) < p_x and candidate_open(g, q, lattice_key(q, g), env):
                return True
    return False


def _restricted_search_scan(g, pool, done, blocks, env, cfg):
    """The search the heap replaced: scan the whole pool for its lowest
    vertex not yet done, admit its moves one by one with
    `candidate_admissible`, and test every near-top move after every step."""
    added = []
    escaped = _in_escape_set_loop(g, pool, env, blocks.steps)
    while not escaped:
        frontier = [v for v in pool if v not in done]
        if not frontier:
            return added, False, True
        vid = min(frontier, key=lambda v: (g.potential_of(v), v))
        admitted = [(q, key, lp.distance(q, g.target))
                    for q, key in step_moves(g, vid, blocks.steps)
                    if (blocks.keep is None or blocks.keep(q[None])[0])
                    and candidate_admissible(g, vid, q, key, env, cfg)]
        new_ids = graph.insert_admitted(g, vid, admitted, env, cfg)
        done.add(vid)
        pool.extend(new_ids)
        added.extend(new_ids)
        if g.target_id is not None:
            break
        escaped = _in_escape_set_loop(g, pool, env, blocks.steps)
    return added, escaped, False


def _in_escape_set_walk(g, pool, env, steps, closed):
    """The vertex-by-vertex walk: each near-top vertex not yet closed is
    tested move by move with `candidate_open`, and closed when none opens."""
    for v in trap_escape._near_top(g, pool):
        if v not in closed:
            if any(lp.distance(q, g.target) < g.potential_of(v)
                   and candidate_open(g, q, key, env) for q, key in step_moves(g, v, steps)):
                return True
            closed.add(v)
    return False


def test_batched_escape_admission_equals_per_candidate_loops(monkeypatch):
    """In both escape modes, with 2, 3 and 4 robots, every batched admission
    admits the moves `candidate_admissible` (and the wall-hugging mask)
    admits, with the same keys, coordinates and potentials (`==`), and every
    batched escape-set test answers and closes as the per-move walk does."""
    admitted, in_escape_set = graph.MoveBlocks.admitted, trap_escape._in_escape_set
    seen = {"group-moves": 0, "masked": 0, "formation-only": 0, "escape-sets": 0,
            "closed-then-open": 0}
    tree = {}

    def checked_admitted(blocks, g, vid):
        env, cfg = tree["env"], tree["cfg"]
        got = admitted(blocks, g, vid)
        moves = step_moves(g, vid, blocks.steps)
        kept = [blocks.keep is None or bool(blocks.keep(q[None])[0]) for q, _ in moves]
        want = [(q, key) for (q, key), ok in zip(moves, kept)
                if ok and candidate_admissible(g, vid, q, key, env, cfg)]
        assert [key for _, key, _ in got] == [key for _, key in want]
        assert all(q.tobytes() == w.tobytes() for (q, _, _), (w, _) in zip(got, want))
        assert [p for _, _, p in got] == [lp.distance(q, g.target) for q, _ in want]
        v = g.coords[vid]
        seen["formation-only"] += sum(
            key not in g.key_map and point_feasible(q, env) and segment_feasible(v, q, env)
            and not candidate_admissible(g, vid, q, key, env, cfg) for q, key in moves)
        seen["group-moves"] += bool((np.count_nonzero(blocks.steps, axis=1) > 1).any())
        seen["masked"] += blocks.keep is not None
        return got

    def checked_in_escape_set(g, pool, env, steps, closed):
        walked = set(closed)
        want = _in_escape_set_walk(g, pool, env, steps, walked)
        before = len(closed)
        got = in_escape_set(g, pool, env, steps, closed)
        assert got == want and closed == walked
        seen["escape-sets"] += 1
        seen["closed-then-open"] += got and len(closed) > before
        return got

    prepare = graph.MoveBlocks.prepare

    def capturing_prepare(blocks, g, first, last, env, cfg):
        tree.update(env=env, cfg=cfg)
        return prepare(blocks, g, first, last, env, cfg)

    monkeypatch.setattr(graph.MoveBlocks, "prepare", capturing_prepare)
    monkeypatch.setattr(graph.MoveBlocks, "admitted", checked_admitted)
    monkeypatch.setattr(trap_escape, "_in_escape_set", checked_in_escape_set)
    for k, step, mode in ((2, 0.04, "fixed-shape"), (3, 0.06, "fixed-shape"),
                          (4, 0.04, "fixed-shape"), (2, 0.08, "near-obstacle"),
                          (3, 0.08, "near-obstacle")):
        truth, start, target = make_deadend(k, dmax=0.25 if k == 4 else 0.13)
        res = lp.plan(truth, start, target, lp.PlannerConfig(
            step=step, sensing_radius=0.12, escape=TrapEscapePolicy(mode=mode)))
        assert res.status == "success"
        assert any(s.graph.escape_log for s in res.segments), (k, mode)
    assert seen["group-moves"] > 500 and seen["masked"] > 100, seen
    assert seen["escape-sets"] > 500, seen
    assert seen["formation-only"] > 0 and seen["closed-then-open"] > 0, seen


def _shape_matches_loop(g, vid, ref, pairs, dim):
    v = g.coords[vid]
    for i, j in pairs:
        dv = v[i * dim:(i + 1) * dim] - v[j * dim:(j + 1) * dim]
        dr = ref[i * dim:(i + 1) * dim] - ref[j * dim:(j + 1) * dim]
        if np.max(np.abs(dv - dr)) > 1e-12:
            return False
    return True


@pytest.fixture(scope="module")
def grown_trees():
    """(tree, env, robots) for dead ends of 2 and 3 robots, with and without
    fixed-shape escape, and the one-robot pocket with wall hugging."""
    out = []
    for k, step in ((2, 0.04), (3, 0.06)):
        truth, start, target = make_deadend(k)
        full = lp.KnownEnvironment.initial(truth, 0.12).fully_revealed()
        for mode in ("none", "fixed-shape"):
            res = lp.plan(truth, start, target,
                          lp.PlannerConfig(step=step, sensing_radius=0.12,
                                           escape=TrapEscapePolicy(mode=mode)))
            out += [(s.graph, full, k) for s in res.segments]
    env = lp.KnownEnvironment.initial(_pocket_world(), 0.1)
    g = generate_graph([0.4, 0.5], [0.9, 0.5], env, GenConfig(step=0.03),
                       escape=TrapEscapePolicy(mode="near-obstacle"))
    return out + [(g, env, 1)]


def _ascending_pools(g, rng):
    ids = np.arange(g.count)
    pools = [ids.tolist(), ids[:max(g.count // 3, 1)].tolist()]
    for frac in (0.5, 0.1):
        pools.append(ids[rng.random(g.count) < frac].tolist())
    for ep in g.escape_log:
        if ep["mode"] == "fixed-shape":
            ref = g.coords[ep["trap"]]
            active = list(ep["constraints"])
            for r in range(ep["relaxations"] + 1):
                pools.append(np.flatnonzero(trap_escape._shape_matches(
                    g, ref, active[:len(active) - r], 2)).tolist())
    return [p for p in pools if p]


def test_restricted_search_equals_pool_scan(monkeypatch):
    """Both escape modes grow the same trees and logs with the frontier heap
    and the closed-vertex skip as with the full pool scan."""
    runs = []
    for k, step, mode in ((2, 0.04, "fixed-shape"), (3, 0.06, "fixed-shape"),
                          (2, 0.08, "near-obstacle")):
        truth, start, target = make_deadend(k)
        runs.append(lambda truth=truth, start=start, target=target, step=step, mode=mode:
                    [s.graph for s in lp.plan(truth, start, target, lp.PlannerConfig(
                        step=step, sensing_radius=0.12,
                        escape=TrapEscapePolicy(mode=mode))).segments])
    env = lp.KnownEnvironment.initial(_pocket_world(), 0.1)
    runs.append(lambda: [generate_graph([0.4, 0.5], [0.9, 0.5], env, GenConfig(step=0.03),
                                        escape=TrapEscapePolicy(mode="near-obstacle"))])

    def outputs():
        return [[(g.dump(), repr(g.escape_log), g.trap_events) for g in run()]
                for run in runs]

    got = outputs()
    monkeypatch.setattr(trap_escape, "_restricted_search", _restricted_search_scan)
    assert got == outputs()
    assert all(any(log != "[]" for _, log, _ in trees) for trees in got)


def test_restricted_search_prepares_added_vertices_in_blocks(monkeypatch):
    """A restricted search prepares a vertex from before the search alone
    and the vertices it added in blocks from the search's first id on, some
    block covering more than one vertex, in both escape modes."""
    search, prepare = trap_escape._restricted_search, graph.MoveBlocks.prepare
    state, spans = {}, []

    def tracking_search(g, pool, done, blocks, env, cfg):
        state.update(start=g.count, blocks=blocks)
        try:
            return search(g, pool, done, blocks, env, cfg)
        finally:
            del state["blocks"]

    def recording_prepare(blocks, g, first, last, env, cfg):
        if state.get("blocks") is blocks:
            spans.append((first, last, state["start"]))
        return prepare(blocks, g, first, last, env, cfg)

    monkeypatch.setattr(trap_escape, "_restricted_search", tracking_search)
    monkeypatch.setattr(graph.MoveBlocks, "prepare", recording_prepare)
    for step, mode in ((0.04, "fixed-shape"), (0.08, "near-obstacle")):
        spans.clear()
        truth, start, target = make_deadend(2)
        assert lp.plan(truth, start, target, lp.PlannerConfig(
            step=step, sensing_radius=0.12, escape=TrapEscapePolicy(mode=mode))).status == \
            "success"
        assert all(last == first + 1 if first < begin else first < last
                   for first, last, begin in spans), mode
        assert max(last - first for first, last, _ in spans) > 1, mode


def test_escape_set_equals_per_vertex_loop_on_grown_trees(grown_trees):
    """The escape-set test equals the loop over every near-top move, also
    when it skips the vertices an earlier call found closed: on a fixed tree
    and environment, a vertex is closed whatever the pool."""
    rng = np.random.default_rng(7)
    compared = escaping = skipped = 0
    for g, env, k in grown_trees:
        move_sets = [_axis_steps(k)]
        if k > 1:
            comps = trap_escape._components(k, list(combinations(range(k), 2)))
            move_sets.append(group_steps(comps, 2, g.n))
        closed_sets = [set() for _ in move_sets]
        for pool in _ascending_pools(g, rng):
            assert trap_escape._near_top(g, pool) == _near_top_loop(g, pool)
            for moves, closed in zip(move_sets, closed_sets):
                skipped += len(closed.intersection(_near_top_loop(g, pool)))
                got = trap_escape._in_escape_set(g, pool, env, moves, closed)
                assert got == _in_escape_set_loop(g, pool, env, moves)
                assert got == trap_escape._in_escape_set(g, pool, env, moves, set())
                compared += 1
                escaping += got
            for moves, closed in zip(move_sets, closed_sets):
                for v in closed:
                    assert not _in_escape_set_loop(g, [v], env, moves)
    assert compared > 100 and 0 < escaping < compared and skipped > 0


def test_parent_keys_equal_rounded_keys_on_escape_moves(grown_trees):
    """Axis and group moves carry their parent's key +-1 on each moved axis:
    the key rounded from the move's coordinates, which `move_rows` builds
    as the move-by-move oracle does."""
    checked = 0
    for g, _, k in grown_trees:
        step_sets = [_axis_steps(k), group_steps(trap_escape._components(
            k, list(combinations(range(k), 2))), 2, g.n)]
        for v in range(0, g.count, 7):
            if g.keys[v] is None:
                continue
            for steps in step_sets:
                rows = move_rows(g.coords[[v]], steps, g.step)[0]
                for q, (w, key) in zip(rows, step_moves(g, v, steps)):
                    assert key == lattice_key(q, g) and q.tobytes() == w.tobytes()
                    checked += 1
    assert checked > 1000


def _hand_tree(points, potentials, step=0.05):
    g = lp.SearchGraph(np.array(points[0]), np.array([0.9, 0.5]), step)
    for x, p in zip(points, potentials):
        g.insert(np.array(x, dtype=float), p, None, None)
    return g


def test_near_top_ties_go_to_the_lowest_id():
    # Vertices 0 and 1 share the top potential, far apart; each has a
    # neighbour of its own.
    g = _hand_tree([[0.1, 0.5], [0.6, 0.5], [0.15, 0.5], [0.65, 0.5]],
                   [1.0, 1.0, 0.5, 0.5])
    for pool in ([0, 1, 2, 3], [1, 2, 3], [0, 3]):
        assert trap_escape._near_top(g, pool) == _near_top_loop(g, pool)
    assert trap_escape._near_top(g, [0, 1, 2, 3]) == [0, 2]
    assert trap_escape._near_top(g, [1, 2, 3]) == [1, 3]


def test_near_top_radius_is_inclusive():
    step = 0.05
    radius = sqrt(2.0) * step + trap_escape._TIE
    # The top sits at x = 0, so each gap is exactly the coordinate below.
    g = _hand_tree([[0.0, 0.5], [step, 0.5 + step], [radius, 0.5],
                    [np.nextafter(radius, 1.0), 0.5], [0.0, 0.5 - step]],
                   [2.0, 1.0, 1.0, 1.0, 1.0], step)
    assert lp.distance(g.coords[2], g.coords[0]) == radius
    assert trap_escape._near_top(g, list(range(5))) == _near_top_loop(g, list(range(5)))
    assert trap_escape._near_top(g, list(range(5))) == [0, 1, 2, 4]


def test_shape_matches_equals_per_vertex_loop(grown_trees):
    checked = 0
    for g, _, k in grown_trees:
        if k < 2:
            continue
        # Prefixes, as the relaxations drop pairs, and every single pair.
        pairs = list(combinations(range(k), 2))
        subsets = [pairs[:r] for r in range(len(pairs) + 1)] + [[p] for p in pairs[1:]]
        for ref in (g.coords[0], g.coords[g.count // 2], g.coords[g.count - 1]):
            for active in subsets:
                got = trap_escape._shape_matches(g, ref, active, 2)
                want = [_shape_matches_loop(g, v, ref, active, 2) for v in range(g.count)]
                assert got.tolist() == want
                checked += 1
                assert 0 < got.sum() < g.count or not active
    assert checked > 0
