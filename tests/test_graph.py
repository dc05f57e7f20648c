"""Lattice-tree generation."""

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import graph
from latticeplan.errors import ResourceLimitError
from latticeplan.geometry import as_config
from latticeplan.graph import GenConfig, SearchGraph, generate_graph

from conftest import MAZE_STEP, make_corridor, make_deadend, make_maze, make_sealed
from geometry_oracles import (oracle_candidate_admissible, oracle_distance_to_revealed,
                              oracle_formation_motion_feasible, oracle_multi_robot_feasible,
                              oracle_point_feasible, oracle_segment_feasible)


class LatticeConsistencyError(ValueError):
    """A configuration is too far from any lattice point to key reliably."""


def lattice_key(x, g: SearchGraph):
    """Integer lattice coordinates of x relative to the graph anchor, rounded
    from its floats: the oracle for the keys the tree derives from parents.

    Raises when any component is farther than a quarter step from the
    nearest lattice multiple (the point was not generated by +-step moves).
    """
    rel = (as_config(x) - g.anchor) / g.step
    rounded = np.rint(rel)
    if np.any(np.abs(rel - rounded) > 0.25):
        raise LatticeConsistencyError(
            f"configuration {x} is off-lattice for anchor {g.anchor}, step {g.step}")
    return tuple(int(v) for v in rounded)


def step_moves(g: SearchGraph, vid: int, steps):
    """The (coordinates, key) of the moves `steps` (M, n) from a vertex, one
    by one: each moved coordinate steps by +-step, the key by +-1."""
    out = []
    for s in np.asarray(steps).tolist():
        q = g.coords[vid].copy()
        key = list(g.keys[vid])
        for c, d in enumerate(s):
            if d:
                q[c] += d * g.step
                key[c] += d
        out.append((q, tuple(key)))
    return out


def argmin_unexpanded_scan(g: SearchGraph):
    """The masked O(V) scan the frontier heap replaced: the unexpanded vertex
    of lowest potential, the lowest id on ties."""
    expanded = [g.is_expanded(v) for v in range(g.count)]
    masked = np.where(expanded, np.inf, g.potentials)
    vid = int(np.argmin(masked))
    return None if masked[vid] == np.inf else vid


def _empty_env(dim=2):
    return lp.KnownEnvironment.initial(
        lp.GroundTruth.create(dim, [0] * dim, [1] * dim, []), 0.1)


def test_three_step_axis_walk_hand_enumerated():
    """Start (0.5,0.5), target (0.59,0.5), step 0.03: the tree is known exactly.

    Root expansion adds 4 vertices; expanding the +x child adds 3 more, and
    its own +x child links the target.  Total 9 vertices, path 0-1-5-8.
    """
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.59, 0.5], env, GenConfig(step=0.03, max_vertices=20))
    assert g is not None and g.count == 9
    assert np.allclose(g.coords[1], [0.53, 0.5])
    assert np.allclose(g.coords[5], [0.56, 0.5])
    assert g.target_id == 8
    assert g.ancestor[8] == 5 and g.ancestor[5] == 1 and g.ancestor[1] == 0
    path = lp.backtrace(g)
    assert path.vertices == [0, 1, 5, 8]
    assert path.length == pytest.approx(0.09, abs=1e-12)


def test_one_dimensional_chain():
    env = _empty_env(dim=1)
    g = generate_graph([0.2], [0.5], env, GenConfig(step=0.1, max_vertices=10))
    assert g is not None
    # 0.2 -> 0.3 -> 0.4, then 0.4 links the target at distance 0.1.
    path = lp.backtrace(g)
    assert [round(float(g.coords[v][0]), 10) for v in path.vertices] == \
        [0.2, 0.3, 0.4, 0.5]


def test_duplicate_candidates_are_pruned():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05, max_vertices=50))
    keys = [k for k in g.keys if k is not None]
    assert len(keys) == len(set(keys))


def test_key_stability_over_many_steps():
    """10^4 accumulated +-step moves still map to exact integer keys."""
    env = _empty_env()
    g = lp.SearchGraph(np.array([0.1, 0.1]), np.array([0.9, 0.9]), 0.03)
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.1])
    for _ in range(10_000):
        axis = rng.integers(0, 2)
        sign = rng.choice([-1.0, 1.0])
        x = x.copy()
        x[axis] += sign * 0.03
        key = lattice_key(x, g)
        assert all(isinstance(v, int) for v in key)


def test_off_lattice_point_raises():
    g = lp.SearchGraph(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.1)
    with pytest.raises(LatticeConsistencyError):
        lattice_key([0.13, 0.0], g)


def test_empty_graph_when_sealed():
    box = lp.ObstaclePrimitive.box([0.35, 0.35], [0.65, 0.65], known=True)
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [box])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    g = generate_graph([0.1, 0.1], [0.5, 0.5], env, GenConfig(step=0.04, max_vertices=1200))
    assert g.target_id is None and g.count > 1
    assert all(g.is_expanded(v) for v in range(g.count))


def test_resource_limit_distinct_from_empty():
    env = _empty_env()
    with pytest.raises(ResourceLimitError):
        generate_graph([0.1, 0.1], [0.9, 0.9], env,
                       GenConfig(step=0.01, max_vertices=50))


def test_trivial_start_equals_target():
    env = _empty_env()
    g = generate_graph([0.3, 0.3], [0.3, 0.3], env, GenConfig(step=0.05, max_vertices=2))
    assert g.count == 1 and g.target_id == 0


def test_root_can_link_target_directly():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.52, 0.5], env, GenConfig(step=0.05, max_vertices=4))
    assert g.count == 2 and g.target_id == 1 and g.ancestor[1] == 0


def test_determinism():
    truth, start, target = (
        lp.GroundTruth.create(2, [0, 0], [1, 1],
                              [lp.ObstaclePrimitive.box([0.4, 0.1], [0.5, 0.8], known=True)]),
        [0.1, 0.3], [0.9, 0.6])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    g1 = generate_graph(start, target, env, GenConfig(step=0.04, max_vertices=200))
    g2 = generate_graph(start, target, env, GenConfig(step=0.04, max_vertices=200))
    assert g1.dump() == g2.dump()


def test_expansion_order_is_lowest_potential_first():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05, max_vertices=50))
    # Replay: each expanded vertex's potential must have been minimal among
    # vertices inserted before it that were still unexpanded at that time.
    # The insertion order itself provides the audit trail: ancestors are
    # always expanded before their children appear.
    for vid in range(g.count):
        a = g.ancestor[vid]
        if a is not None:
            assert a < vid


def test_potentials_view_is_the_read_only_distance_to_target():
    env = _empty_env()
    g = generate_graph([0.5, 0.5], [0.9, 0.5], env, GenConfig(step=0.05, max_vertices=50))
    pot = g.potentials
    assert pot.shape == (g.count,) and not pot.flags.writeable
    assert pot.tolist() == [lp.distance(x, g.target) for x in g.coords]


def _tree_runs():
    """(name, truth, start, target, config) of the runs whose trees the key
    and frontier oracles check."""
    runs = []
    truth, start, target = make_sealed(0)
    runs.append(("sealed", truth, start, target,
                 lp.PlannerConfig(step=0.04, sensing_radius=0.1, max_vertices=1200)))
    truth, start, target = make_maze(3)
    runs.append(("maze", truth, start, target,
                 lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=180)))
    for k in (1, 2, 3):
        truth, start, target = make_corridor(k)
        runs.append((f"corridor-{k}", truth, start, target,
                     lp.PlannerConfig(step=0.04, sensing_radius=0.12, max_vertices=550)))
    truth, start, target = make_deadend()
    for mode, step in (("fixed-shape", 0.04), ("near-obstacle", 0.06)):
        runs.append((f"deadend-{mode}", truth, start, target,
                     lp.PlannerConfig(step=step, sensing_radius=0.12, max_vertices=900,
                                      escape=lp.TrapEscapePolicy(mode=mode))))
    return runs


def test_parent_keys_and_heap_frontier_equal_their_oracles(monkeypatch):
    """Every tree vertex's key equals the key rounded from its coordinates,
    and at every expansion the heap picks the vertex the masked scan picks."""
    heap_pick = SearchGraph.argmin_unexpanded
    picks = 0

    def checked_pick(g):
        nonlocal picks
        vid = heap_pick(g)
        assert vid == argmin_unexpanded_scan(g)
        picks += 1
        return vid

    monkeypatch.setattr(SearchGraph, "argmin_unexpanded", checked_pick)
    for name, truth, start, target, cfg in _tree_runs():
        res = lp.plan(truth, start, target, cfg)
        want = "no-feasible-path" if name == "sealed" else "success"
        assert res.status == want, name
        if name.startswith("deadend"):
            assert any(s.graph.escape_log for s in res.segments), name
        for seg in res.segments:
            g = seg.graph
            for vid in range(g.count):
                if g.keys[vid] is None:
                    assert vid == g.target_id  # only a linked target is off-lattice
                else:
                    assert g.keys[vid] == lattice_key(g.coords[vid], g), (name, vid)
                    assert g.key_map[g.keys[vid]] == vid
    assert picks > 1000


def _face_world():
    """Known boxes whose faces lie on lattice lines of the dyadic pitch
    1/16: lattice points on a face are feasible, and the wall is thinner
    than the pitch, so moves across it have both endpoints outside it."""
    B = lp.ObstaclePrimitive.box
    boxes = [B([0.5, 0.25], [0.53125, 0.75], known=True),
             B([0.25, 0.125], [0.375, 0.375], known=True),
             B([0.6875, 0.5625], [0.8125, 0.6875], known=True)]
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], boxes)
    return truth, np.array([0.0625, 0.5]), np.array([0.9375, 0.5])


def _slab_world_3d():
    """3-D: an unknown slab thinner than the pitch 1/8, with a gap above it,
    and an unknown block."""
    B = lp.ObstaclePrimitive.box
    boxes = [B([0.5, 0.0, 0.0], [0.5625, 0.75, 1.0]),
             B([0.25, 0.625, 0.25], [0.375, 0.875, 0.75])]
    truth = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], boxes)
    return truth, np.array([0.125, 0.5, 0.5]), np.array([0.875, 0.5, 0.5])


def _block_runs():
    """The tree runs above, more mazes and sealed rooms, a world with lattice
    points on box faces, and a 3-D one."""
    runs = _tree_runs()
    for seed in (1, 2):
        truth, start, target = make_sealed(seed)
        runs.append((f"sealed-{seed}", truth, start, target,
                     lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=2000)))
    for seed in range(4, 10):
        truth, start, target = make_maze(seed)
        runs.append((f"maze-{seed}", truth, start, target,
                     lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1, max_vertices=220)))
    truth, start, target = _face_world()
    runs.append(("faces", truth, start, target,
                 lp.PlannerConfig(step=0.0625, sensing_radius=0.1, max_vertices=120)))
    truth, start, target = _slab_world_3d()
    runs.append(("slab-3d", truth, start, target,
                 lp.PlannerConfig(step=0.125, sensing_radius=0.15, max_vertices=100)))
    return runs


def test_group_steps_and_move_rows_on_literals():
    assert graph.group_steps([[0], [1]], 2, 4).tolist() == [
        [1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0],
        [0, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1], [0, 0, 0, -1]]
    assert graph.group_steps([[0, 1]], 2, 4).tolist() == [
        [1, 0, 1, 0], [-1, 0, -1, 0], [0, 1, 0, 1], [0, -1, 0, -1]]
    assert graph.group_steps([[0, 2], [1]], 1, 3).tolist() == [
        [1, 0, 1], [-1, 0, -1], [0, 1, 0], [0, -1, 0]]
    assert graph.group_steps([[0]], 1, 1).tolist() == [[1], [-1]]
    v = np.array([[-0.0, 0.5], [0.25, 0.75]])
    q = graph.move_rows(v, graph.group_steps([[0]], 2, 2), 0.25)
    assert q.tolist() == [[[0.25, 0.5], [-0.25, 0.5], [-0.0, 0.75], [-0.0, 0.25]],
                          [[0.5, 0.75], [0.0, 0.75], [0.25, 1.0], [0.25, 0.5]]]
    assert np.signbit(q[0, 2:, 0]).all()  # an unmoved -0.0 stays -0.0


def test_block_admission_equals_candidate_admissible(monkeypatch):
    """At every expansion, of the main loop and of the escapes, the block's
    admitted moves are those `oracle_candidate_admissible` (and the
    wall-hugging shell) admits from the same vertex, with the same keys and
    coordinates.  Per move, the block's flag equals the point, segment and,
    for a formation, band and motion oracles, its end-point row the point
    oracle, its potential `distance` to the target and, in a wall-hugging
    tree, its clearance row the clearance oracle, exactly.  This holds as
    well for the vertices
    served from the rows of a descent admitted ahead, which a maze and a
    formation run both use."""
    admitted, prepare = graph.MoveBlocks.admitted, graph.MoveBlocks.prepare
    recall = graph.MoveBlocks.recall
    seen = {"expansions": 0, "segment-only": 0, "on-face": 0, "formation-only": 0,
            "8-D": 0, "clearances": 0}
    recalled = {}
    tree = {}

    def counting_recall(blocks, g, vid):
        hit = recall(blocks, g, vid)
        recalled[tree["name"]] = recalled.get(tree["name"], 0) + hit
        return hit

    def capturing_prepare(blocks, g, first, last, env, cfg, *ahead):
        tree.update(env=env, cfg=cfg)  # fixed while one tree grows
        return prepare(blocks, g, first, last, env, cfg, *ahead)

    def checked(blocks, g, vid, eps=None):
        env, cfg = tree["env"], tree["cfg"]
        dmin, dmax = env.truth.dmin, env.truth.dmax
        got = admitted(blocks, g, vid, eps)
        moves = step_moves(g, vid, blocks.steps)
        kept = [eps is None or oracle_distance_to_revealed(q, env) <= eps for q, _ in moves]
        want = [(q, key) for (q, key), ok in zip(moves, kept)
                if ok and oracle_candidate_admissible(g, vid, q, key, env, cfg)]
        assert [key for _, key, _ in got] == [key for _, key in want]
        assert all(q.tobytes() == w.tobytes() for (q, _, _), (w, _) in zip(got, want))
        v = g.coords[vid]
        for move, (q, _) in enumerate(moves):
            on_point = oracle_point_feasible(q, env)
            on_segment = on_point and oracle_segment_feasible(v, q, env)
            in_band = dmin is None or dmax is None or (
                oracle_multi_robot_feasible(q, env, dmin, dmax)
                and oracle_formation_motion_feasible(v, q, env, dmin, dmax, cfg.link_step))
            assert blocks.passed[vid, move] == (on_segment and in_band)
            assert blocks.pot[vid, move] == lp.distance(q, g.target)
            if blocks.open is not None:
                assert blocks.open[vid, move] == on_point
            if blocks.clear is not None:
                assert blocks.clear[vid, move] == oracle_distance_to_revealed(q, env)
                seen["clearances"] += 1
            seen["segment-only"] += on_point and not on_segment
            seen["formation-only"] += on_segment and not in_band
            pos = env.robot_positions(q)[:, None, :]
            seen["on-face"] += on_point and bool(  # on the boundary of a box
                ((env.lo <= pos) & (pos <= env.hi)).all(axis=-1).any())
        assert [p for _, _, p in got] == [lp.distance(q, g.target) for q, _ in want]
        seen["expansions"] += 1
        seen["8-D"] += g.n == 8
        return got

    monkeypatch.setattr(graph.MoveBlocks, "prepare", capturing_prepare)
    monkeypatch.setattr(graph.MoveBlocks, "admitted", checked)
    monkeypatch.setattr(graph.MoveBlocks, "recall", counting_recall)
    runs = _block_runs()
    truth, start, target = make_corridor(4, dmax=0.25)
    runs.append(("corridor-4", truth, start, target,
                 lp.PlannerConfig(step=0.04, sensing_radius=0.12, max_vertices=1600)))
    for name, truth, start, target, cfg in runs:
        tree["name"] = name
        res = lp.plan(truth, start, target, cfg)
        want = "no-feasible-path" if name.startswith("sealed") else "success"
        assert res.status == want, name
    assert recalled["maze"] > 0 and recalled["corridor-4"] > 0, recalled
    assert seen["expansions"] > 3000 and seen["8-D"] > 50, seen
    assert seen["segment-only"] > 0 and seen["on-face"] > 0, seen
    assert seen["formation-only"] > 0 and seen["clearances"] > 1000, seen


@pytest.mark.parametrize("start, target", [([0.1, 0.5], [0.9, 0.5]),
                                           ([0.1, 0.1], [0.7, 0.87])])
def test_descent_admitted_ahead_takes_one_pass(monkeypatch, start, target):
    """In an open world the tree is one greedy descent of 30 or more steps:
    the root's admission pass also admits the descent ahead, so the main
    loop prepares at most twice, not once per expansion."""
    prepare, calls = graph.MoveBlocks.prepare, []

    def counting_prepare(blocks, g, first, last, env, cfg, *ahead):
        calls.append((first, last))
        return prepare(blocks, g, first, last, env, cfg, *ahead)

    monkeypatch.setattr(graph.MoveBlocks, "prepare", counting_prepare)
    g = generate_graph(start, target, _empty_env(), GenConfig(step=0.02, max_vertices=300))
    assert g.target_id is not None and not g.trapped
    assert sum(g.is_expanded(v) for v in range(g.count)) >= 30
    assert len(calls) <= 2, calls


def test_descent_ahead_shrinks_to_what_the_tree_follows(monkeypatch):
    """Flooding the outside of sealed rooms, the tree leaves most descents
    after a pop or two: once a descent served f pops, the next one admits
    at most 2f + 2 points, so the rows admitted ahead stay few."""
    prepare, descent = graph.MoveBlocks.prepare, graph.descent
    seen = {"capped": 0, "points": 0}
    state = {}

    def recording_descent(g, vid, count):
        points = descent(g, vid, count)
        followed = state["blocks"]._followed
        if followed is not None:
            assert len(points) <= 2 * followed + 2
            seen["capped"] += 1
        seen["points"] += len(points)
        return points

    def tracking_prepare(blocks, g, first, last, env, cfg, *ahead):
        state["blocks"] = blocks
        return prepare(blocks, g, first, last, env, cfg, *ahead)

    monkeypatch.setattr(graph, "descent", recording_descent)
    monkeypatch.setattr(graph.MoveBlocks, "prepare", tracking_prepare)
    vertices = 0
    for seed in range(3):
        truth, start, target = make_sealed(seed)
        res = lp.plan(truth, start, target, lp.PlannerConfig(
            step=MAZE_STEP, sensing_radius=0.1, max_vertices=2100))
        assert res.status == "no-feasible-path"
        vertices += res.metrics["max_vertices"]
    # Descents as long as a pass allows would admit 0.23 points per vertex.
    assert seen["capped"] > 50 and seen["points"] < 0.15 * vertices, (seen, vertices)


def test_admission_memory_stays_bounded_on_large_blocks():
    """The 6-D dead end without escape, capped at 10,000 vertices, grows
    blocks of thousands of vertices; admission passes of a bounded number of
    moves keep the peak of traced allocations far below what one pass over
    a whole block takes (187 MB)."""
    import tracemalloc

    truth, start, target = make_deadend(3, dmax=0.19)
    cfg = lp.PlannerConfig(step=0.04, sensing_radius=0.12, max_vertices=10_000)
    tracemalloc.start()
    try:
        res = lp.plan(truth, start, target, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "resource-limit"
    assert peak < 64 * 2**20, f"{peak / 2**20:.0f} MB"
