"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

The random-maze suite (50 worlds) is planned once in a session fixture and
reused by the completeness, path-uniqueness, stop-band and determinism
checks.
"""

import time

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import fpe, render
from latticeplan.geometry import point_feasible
from latticeplan.pathfind import backtrace
from latticeplan.planner import (densify, lattice_capacity, metrics_text,
                                 trajectory_text)

from conftest import (MAZE_STEP, containment_scenes, make_corridor,
                      make_deadend, make_maze, make_sealed)
from search_oracles import bfs_path, dijkstra_path


# -- 1. completeness on unknown mazes ------------------------------------

def test_completeness_50_random_mazes(maze_results):
    """50/50 success, every trajectory collision-free at pitch step/100."""
    failures = []
    for i, (truth, start, target, cfg, res) in enumerate(maze_results):
        if res.status != "success":
            failures.append((i, res.status))
            continue
        full = lp.KnownEnvironment.initial(truth, cfg.sensing_radius).fully_revealed()
        fine = densify(res.full_trajectory, MAZE_STEP / 100.0)
        if not all(point_feasible(x, full) for x in fine):
            failures.append((i, "collision"))
    assert not failures, f"maze failures: {failures}"


def test_completeness_runtime_bound():
    for seed in (0, 17, 42):
        truth, start, target = make_maze(seed)
        cfg = lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1)
        t0 = time.time()
        lp.plan(truth, start, target, cfg)
        assert time.time() - t0 < 5.0


# -- 2. no-path certification --------------------------------------------

def test_sealed_targets_certified_unreachable():
    for seed in range(20):
        truth, start, target = make_sealed(seed)
        cap = lattice_capacity(truth, MAZE_STEP, 2)
        cfg = lp.PlannerConfig(step=MAZE_STEP, sensing_radius=0.1,
                               max_vertices=cap)
        t0 = time.time()
        res = lp.plan(truth, start, target, cfg)
        elapsed = time.time() - t0
        # max_vertices equals the lattice capacity: exceeding it would have
        # surfaced as resource-limit instead of a certificate.
        assert res.status == "no-feasible-path", f"seed {seed}: {res.status}"
        assert elapsed < 5.0


# -- 3. unique path property ---------------------------------------------

def test_path_extractors_never_disagree(maze_results):
    mismatches = 0
    graphs = 0
    for truth, start, target, cfg, res in maze_results:
        for seg in res.segments:
            g = seg.graph
            if g.target_id is None:
                continue
            graphs += 1
            b = backtrace(g).vertices
            if b != bfs_path(g).vertices or b != dijkstra_path(g).vertices:
                mismatches += 1
    assert graphs > 50
    assert mismatches == 0


# -- 4. stop-rule clearance band -----------------------------------------

def test_blocked_stops_land_in_clearance_band(maze_results):
    lo = 0.5 * 0.1 - MAZE_STEP / 10.0
    hi = 0.1
    violations = []
    blocked = 0
    for i, (truth, start, target, cfg, res) in enumerate(maze_results):
        for seg in res.segments:
            m = seg.motion
            if m.status != "blocked":
                continue
            blocked += 1
            if not (lo - 1e-12 <= m.stop_clearance <= hi + 1e-12):
                violations.append((i, m.stop_clearance))
    assert blocked > 0, "the unknown mazes should force some stops"
    assert not violations, f"clearance violations: {violations}"


# -- 5. solver conservation, dissipation, Gibbs limit --------------------

def test_solver_20x20_conserves_and_reaches_gibbs():
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], [])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    lat = fpe.Lattice.build(env, [0.025, 0.025], 0.05, [0.925, 0.475])
    assert lat.size == 400
    beta = 0.1
    t0 = time.time()
    res = fpe.evolve_to_steady(fpe.DensityField.uniform(lat, beta), lat,
                               fpe.diffusion_weights(lat), tol=1e-10)
    elapsed = time.time() - t0
    gibbs = np.exp(-lat.p / beta)
    gibbs /= gibbs.sum()
    assert res.converged
    assert res.max_mass_error < 1e-12
    assert res.max_energy_increase <= 1e-12
    assert np.max(np.abs(res.field.rho - gibbs)) < 1e-6
    assert elapsed < 10.0


# -- 6. beta=0 steady support --------------------------------------------

def test_beta_zero_support_is_subset_of_minimizers():
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        prims = []
        for _ in range(4):
            c = rng.uniform(0.15, 0.85, 2)
            h = rng.uniform(0.03, 0.12, 2)
            prims.append(lp.ObstaclePrimitive.box(np.clip(c - h, 0, 1),
                                                  np.clip(c + h, 0, 1), known=True))
        target = rng.uniform(0.1, 0.9, 2)
        truth = lp.GroundTruth.create(2, [0, 0], [1, 1], prims)
        env = lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()
        lat = fpe.Lattice.build(env, rng.uniform(0.0, 0.05, 2), 0.05, target)
        res = fpe.evolve_to_steady(fpe.DensityField.uniform(lat, 0.0), lat,
                                   fpe.diffusion_weights(lat), tol=1e-12)
        mins = {j for j in range(lat.size)
                if all(lat.p[k] >= lat.p[j] for k in lat.neighbors[j])}
        support = set(np.nonzero(res.field.rho > 1e-9)[0])
        assert support <= mins, f"seed {seed}: stray mass outside minimizers"


# -- 7. CFL stability and violation detection ----------------------------

def test_cfl_steps_keep_masses_in_unit_interval():
    truth = lp.GroundTruth.create(2, [0, 0], [0.25, 0.25], [])
    env = lp.KnownEnvironment.initial(truth, 0.1)
    lat = fpe.Lattice.build(env, [0.025, 0.025], 0.05, [0.225, 0.175])
    w = fpe.diffusion_weights(lat)
    f = fpe.DensityField.uniform(lat, beta=0.1)
    for _ in range(100_000):
        f = fpe.fpe_step(f, lat, w, fpe.cfl_dt(f, lat, w))
        assert f.rho.min() >= -1e-14 and f.rho.max() <= 1.0 + 1e-12


def test_oversized_step_triggers_cfl_error():
    coords = np.array([[0.0, 0.0], [0.1, 0.0]])
    lat = fpe.Lattice(coords=coords, dx=0.1, anchor=np.zeros(2),
                      p=np.array([0.0, 1.0]), edges=np.array([[0, 1]]),
                      neighbors=[[1], [0]], key_map={(0, 0): 0, (1, 0): 1})
    f = fpe.DensityField(rho=np.array([0.0, 1.0]), beta=0.0)
    w = fpe.diffusion_weights(lat)
    with pytest.raises(lp.CflViolationError):
        fpe.fpe_step(f, lat, w, 4.0 * fpe.cfl_dt(f, lat, w))


# -- 8. bounded-region containment ---------------------------------------

def test_region_contains_planner_trajectory_5_of_5():
    """The trajectory and every tree vertex the planner expanded (the part of
    the lattice it explored) lie inside the region."""
    step = 0.05
    failed = []
    expanded = 0
    for name, prims, start, target in containment_scenes():
        truth = lp.GroundTruth.create(2, [0, 0], [1, 1], prims)
        cfg = lp.PlannerConfig(step=step, sensing_radius=0.12)
        res = lp.plan(truth, start, target, cfg)
        env = lp.KnownEnvironment.initial(truth, 0.12).fully_revealed()
        lat = fpe.Lattice.build(env, start, step, target)
        region = fpe.build_region(start, target, lat)
        explored = [g.coords[v] for g in (s.graph for s in res.segments)
                    for v in range(g.count) if g.is_expanded(v)]
        expanded += len(explored)
        if (res.status != "success" or not fpe.contains_path(region, res.full_trajectory)
                or not fpe.contains_path(region, explored)):
            failed.append(name)
    assert not failed, f"containment failed on: {failed}"
    assert expanded > 100


# -- 9. trap-escape vertex reduction -------------------------------------

def test_fixed_shape_escape_halves_vertex_count():
    truth, start, target = make_deadend()
    base = lp.plan(truth, start, target,
                   lp.PlannerConfig(step=0.04, sensing_radius=0.12))
    esc = lp.plan(truth, start, target,
                  lp.PlannerConfig(step=0.04, sensing_radius=0.12,
                                   escape=lp.TrapEscapePolicy(mode="fixed-shape")))
    assert base.status == "success" and esc.status == "success"
    assert esc.metrics["max_vertices"] <= 0.5 * base.metrics["max_vertices"], (
        f"{esc.metrics['max_vertices']} vs {base.metrics['max_vertices']}")


# -- 10. sub-exponential dimensional scaling ------------------------------

def _corridor_vertices(k: int, dmax: float = 0.13) -> int:
    truth, start, target = make_corridor(k, dmax=dmax)
    res = lp.plan(truth, start, target, lp.PlannerConfig(step=0.04, sensing_radius=0.1))
    assert res.status == "success"
    return sum(s.graph.count for s in res.segments)


def test_vertex_growth_is_sub_exponential():
    totals = {2 * k: _corridor_vertices(k) for k in (1, 2, 3)}
    r62 = totals[6] / totals[2]
    r42 = totals[4] / totals[2]
    assert r62 < r42 ** 3, f"{r62} !< {r42 ** 3}"
    # Up to 12-D: a longer file needs a wider band, dmax = 0.06k + 0.01
    # (0.13 for two robots).  Each two more dimensions multiply the tree by
    # less than the two before did; an exponential would keep the factor.
    wide = {4: totals[4]}
    wide.update({2 * k: _corridor_vertices(k, 0.06 * k + 0.01) for k in range(3, 7)})
    ratios = [wide[n + 2] / wide[n] for n in range(4, 12, 2)]
    assert all(b < a for a, b in zip(ratios, ratios[1:])), (wide, ratios)


# -- 11. determinism ------------------------------------------------------

def test_rerun_is_byte_identical(maze_results):
    for i, (truth, start, target, cfg, res) in enumerate(maze_results):
        rerun = lp.plan(truth, start, target, cfg)
        assert trajectory_text(res) == trajectory_text(rerun), f"maze {i}"
        assert metrics_text(res) == metrics_text(rerun), f"maze {i}"
        known = lp.KnownEnvironment.initial(truth, cfg.sensing_radius)
        known2 = known
        for a, b in zip(res.segments, rerun.segments):
            for x in a.motion.traversed:
                known = lp.sense(known, x)
            for x in b.motion.traversed:
                known2 = lp.sense(known2, x)
        for j in range(len(res.segments)):
            svg1 = render.render_plan_segment(res, j, known)
            svg2 = render.render_plan_segment(rerun, j, known2)
            assert svg1 == svg2, f"maze {i} segment {j}"
