"""Density-flow solver: CFL bound, conservation, Gibbs limits, regions.

The region is built from closed forms of the flow's limits; the explicit
solver is the oracle they are compared with here.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import fpe
from latticeplan.errors import CflViolationError, RegionError
from latticeplan.geometry import distance

from conftest import containment_scenes
from geometry_oracles import oracle_point_feasible, oracle_segment_feasible, region_contains


def _chain(p, dx=0.1):
    """Hand-built 1D chain lattice embedded in 2D."""
    m = len(p)
    coords = np.array([[i * dx, 0.0] for i in range(m)])
    edges = np.array([[i, i + 1] for i in range(m - 1)])
    neighbors = [[] for _ in range(m)]
    for j, k in edges:
        neighbors[j].append(int(k))
        neighbors[k].append(int(j))
    key_map = {(i, 0): i for i in range(m)}
    return fpe.Lattice(coords=coords, dx=dx, anchor=np.zeros(2),
                       p=np.array(p, dtype=float), edges=edges,
                       neighbors=neighbors, key_map=key_map)


def _env(prims=(), dmin=None, dmax=None):
    truth = lp.GroundTruth.create(2, [0, 0], [1, 1], list(prims),
                                  dmin=dmin, dmax=dmax)
    return lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()


def test_cfl_dt_two_node_hand_value():
    # p=(0,1), beta=0, rho=(1/2,1/2), dx=0.1: both bounds equal 1, so
    # dt = 0.9 * 0.01 = 0.009.
    lat = _chain([0.0, 1.0])
    f = fpe.DensityField(rho=np.array([0.5, 0.5]), beta=0.0)
    w = fpe.diffusion_weights(lat)
    assert fpe.cfl_dt(f, lat, w) == pytest.approx(0.009, abs=1e-15)
    # One step moves 0.45 of mass downhill: (0.95, 0.05).
    nxt = fpe.fpe_step(f, lat, w, 0.009)
    assert np.allclose(nxt.rho, [0.95, 0.05], atol=1e-15)


def test_cfl_violation_on_oversized_step():
    # All mass on the high node: 4x the stable step drains 3.6x its mass.
    lat = _chain([0.0, 1.0])
    f = fpe.DensityField(rho=np.array([0.0, 1.0]), beta=0.0)
    w = fpe.diffusion_weights(lat)
    dt = fpe.cfl_dt(f, lat, w)
    with pytest.raises(CflViolationError):
        fpe.fpe_step(f, lat, w, 4.0 * dt)


def test_mass_conserved_and_energy_monotone():
    lat = _chain([0.3, 0.1, 0.5, 0.2, 0.0], dx=0.05)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.1, 1.0, 5)
    f = fpe.DensityField(rho=rho / rho.sum(), beta=0.2)
    w = fpe.diffusion_weights(lat)
    fe = fpe.free_energy(f, lat)
    for _ in range(500):
        f = fpe.fpe_step(f, lat, w, fpe.cfl_dt(f, lat, w))
        assert abs(f.rho.sum() - 1.0) < 1e-12
        fe_next = fpe.free_energy(f, lat)
        assert fe_next <= fe + 1e-12
        fe = fe_next


def test_steady_state_matches_gibbs_three_nodes():
    # softmax(-p) for p=(0,1,2): exact Gibbs weights.
    # A tiny chain with beta comparable to the potential gaps is stiff in the
    # entropy term; a reduced step keeps the explicit scheme contractive.
    lat = _chain([0.0, 1.0, 2.0])
    f = fpe.DensityField.uniform(lat, beta=1.0)
    res = fpe.evolve_to_steady(f, lat, fpe.diffusion_weights(lat), tol=1e-12,
                               safety=0.2)
    want = np.exp(-lat.p)
    want /= want.sum()
    assert res.converged
    assert np.max(np.abs(res.field.rho - want)) < 1e-8
    assert np.allclose(want, [0.66524096, 0.24472847, 0.09003057], atol=1e-8)


def test_gibbs_is_stationary():
    lat = _chain([0.0, 0.7, 0.3, 1.0], dx=0.2)
    beta = 0.5
    rho = np.exp(-lat.p / beta)
    f = fpe.DensityField(rho=rho / rho.sum(), beta=beta)
    w = fpe.diffusion_weights(lat)
    nxt = fpe.fpe_step(f, lat, w, fpe.cfl_dt(f, lat, w))
    assert np.max(np.abs(nxt.rho - f.rho)) < 1e-14


def test_beta_zero_support_two_basins():
    # Two local minima (ends), barrier in the middle: steady support is
    # exactly the two minimizers.
    lat = _chain([0.0, 0.4, 0.8, 0.3, 0.1])
    f = fpe.DensityField.uniform(lat, beta=0.0)
    res = fpe.evolve_to_steady(f, lat, fpe.diffusion_weights(lat), tol=1e-13)
    support = set(np.nonzero(res.field.rho > 1e-10)[0])
    assert support == {0, 4}


def _evolve_by_public_steps(f, lat, w, tol, safety=0.9, touched=None):
    """evolve_to_steady's loop with a fresh `cfl_dt` and `fpe_step` at every
    trial step: the solver before it kept the beta = 0 coefficients.  When
    `touched` is given, every node whose density ever rises faster than
    1e-14 per unit time joins it."""
    fe, shrink, streak = fpe.free_energy(f, lat), 1.0, 0
    for it in itertools.count(1):
        dt = shrink * fpe.cfl_dt(f, lat, w, safety=safety)
        nxt = fpe.fpe_step(f, lat, w, dt)
        fe_next = fpe.free_energy(nxt, lat)
        if fe_next > fe + 1e-15 and shrink > 1e-9:
            shrink, streak = shrink * 0.5, 0
            continue
        d = nxt.rho - f.rho
        if touched is not None:
            touched.update(np.flatnonzero(d / dt > 1e-14).tolist())
        residual = float(np.max(np.abs(d))) / dt
        fe, f, streak = fe_next, nxt, streak + 1
        if shrink < 1.0 and streak >= 50:
            shrink, streak = min(1.0, shrink * 2.0), 0
        if residual < tol:
            return f.rho, it, residual


def test_evolution_equals_fresh_public_steps():
    """Kept coefficients at beta = 0 and shared flows at every beta give the
    same densities bit for bit, after the same number of trial steps."""
    rng = np.random.default_rng(11)
    box = lp.ObstaclePrimitive.box([0.3, 0.2], [0.45, 0.7], known=True)
    lat = fpe.Lattice.build(_env([box]), rng.uniform(0.0, 0.1, 2), 0.1, [0.8, 0.4])
    chain = _chain([0.0, 0.4, 0.8, 0.3, 0.1])
    cases = [(chain, fpe.DensityField.uniform(chain, 0.0), fpe.diffusion_weights(chain)),
             (lat, fpe.DensityField.uniform(lat, 0.05), fpe.diffusion_weights(lat))]
    for node in (lat.size // 2, lat.size - 1):
        cases += [(lat, fpe.DensityField.delta(lat, node), fpe.diffusion_weights(lat)),
                  (lat, fpe.DensityField.delta(lat, node), fpe.gradient_weights(lat))]
    for case, f, w in cases:
        res = fpe.evolve_to_steady(f, case, w, tol=1e-9)
        rho, iterations, residual = _evolve_by_public_steps(f, case, w, 1e-9)
        assert res.converged and res.iterations == iterations
        assert res.residual == residual
        assert res.field.rho.tobytes() == rho.tobytes()


def test_gradient_weights_pick_steepest_axis():
    env = _env()
    lat = fpe.Lattice.build(env, [0.0, 0.0], 0.1, [0.9, 0.2])
    w = fpe.gradient_weights(lat)
    # At (0.1, 0.2) the gradient points along -x only: the +x edge must carry
    # weight 1 and the downhill y edge weight 0.
    j = lat.node_at([0.1, 0.2])
    k = lat.node_at([0.2, 0.2])
    e = [i for i, (a, b) in enumerate(lat.edges)
         if {int(a), int(b)} == {j, k}][0]
    assert w[e] == 1.0


def test_lattice_rejects_high_dimension():
    env = _env()
    with pytest.raises(ValueError):
        fpe.Lattice.build(env, [0.1, 0.1, 0.1, 0.1], 0.1, [0.9, 0.9, 0.9, 0.9])


def test_lattice_excludes_obstacle_interiors():
    env = _env([lp.ObstaclePrimitive.box([0.35, 0.35], [0.65, 0.65], known=True)])
    lat = fpe.Lattice.build(env, [0.0, 0.0], 0.1, [0.9, 0.9])
    for x in lat.coords:
        assert not (0.35 < x[0] < 0.65 and 0.35 < x[1] < 0.65)


def test_gradient_region_descends_to_target():
    env = _env()
    lat = fpe.Lattice.build(env, [0.1, 0.5], 0.05, [0.9, 0.5])
    nodes = fpe.gradient_region(lat.node_at([0.1, 0.5]), lat)
    assert lat.node_at([0.1, 0.5]) in nodes
    assert lat.node_at([0.9, 0.5]) in nodes


def test_build_region_convex_world_is_corridor():
    env = _env()
    lat = fpe.Lattice.build(env, [0.1, 0.5], 0.05, [0.9, 0.5])
    region = fpe.build_region([0.1, 0.5], [0.9, 0.5], lat)
    # Pure descent: the region is the straight row of nodes.
    ys = {round(float(lat.coords[i][1]), 10) for i in region.nodes}
    assert ys == {0.5}
    line = [np.array([x, 0.5]) for x in np.linspace(0.1, 0.9, 200)]
    assert fpe.contains_path(region, line)
    assert not region_contains(region, [0.5, 0.62])


def test_region_unreachable_target_raises():
    walls = [lp.ObstaclePrimitive.box([0.4, 0.0], [0.5, 1.0], known=True)]
    env = _env(walls)
    lat = fpe.Lattice.build(env, [0.1, 0.52], 0.05, [0.9, 0.52])
    with pytest.raises(RegionError):
        fpe.build_region([0.1, 0.52], [0.9, 0.52], lat)


def test_diffusion_layer_potentials_increase():
    # Pocket: back wall plus arms; layers must climb the potential.
    walls = [lp.ObstaclePrimitive.box([0.52, 0.22], [0.57, 0.63], known=True),
             lp.ObstaclePrimitive.box([0.33, 0.22], [0.52, 0.27], known=True),
             lp.ObstaclePrimitive.box([0.33, 0.58], [0.52, 0.63], known=True)]
    env = _env(walls)
    lat = fpe.Lattice.build(env, [0.1, 0.4], 0.05, [0.9, 0.4])
    prev = fpe.gradient_region(lat.node_at([0.1, 0.4]), lat)
    beta = float(lat.p.max() - lat.p.min()) / 10.0
    added, nxt = fpe.diffusion_region(prev, lat, beta)
    assert added, "the trapped descent region must grow diffusion layers"
    assert nxt is not None and nxt not in prev and nxt not in added
    # Every layer node sits above the trapped region's minimum potential and
    # the hand-off node continues downhill from some region node.
    region_min = min(lat.p[i] for i in prev)
    assert all(lat.p[i] > region_min for i in added)
    assert any(lat.p[nxt] < lat.p[i] for i in added)


def test_region_dump_format():
    env = _env()
    lat = fpe.Lattice.build(env, [0.1, 0.5], 0.2, [0.9, 0.5])
    region = fpe.build_region([0.1, 0.5], [0.9, 0.5], lat)
    lines = fpe.region_dump(region).strip().splitlines()
    assert len(lines) == lat.size
    first = lines[0].split()
    assert len(first) == 4  # x y in_region steady_rho
    assert first[2] in ("0", "1")


# -- closed forms against the solver ---------------------------------------

def _solver_sweep(start_node, lat):
    """The descent sweep as the solver computes it: evolve a unit mass from
    the start node at beta = 0 under the descent weights and collect every
    node whose density ever strictly increases."""
    touched = {start_node}
    _evolve_by_public_steps(fpe.DensityField.delta(lat, start_node), lat,
                            fpe.gradient_weights(lat), 1e-12, touched=touched)
    return touched


def _loop_gradient_weights(lat, target):
    """Node-by-node descent weights ranked by the inner product of each
    lower-potential step with the analytic gradient (x - target) / |x - target|
    of the distance potential."""
    d = np.zeros(lat.edges.shape[0])
    edge_index = {}
    for e, (j, k) in enumerate(lat.edges.tolist()):
        edge_index[(j, k)] = edge_index[(k, j)] = e
    for j in range(lat.size):
        lower = [k for k in lat.neighbors[j] if lat.p[k] < lat.p[j]]
        if not lower:
            continue
        grad = lat.coords[j] - np.asarray(target, dtype=float)
        grad = grad / np.linalg.norm(grad)  # lower neighbours exist: not the target
        vals = [float(np.dot(lat.coords[j] - lat.coords[k], grad)) for k in lower]
        m = max(vals)
        for k, v in zip(lower, vals):
            if v >= m - 1e-12:
                d[edge_index[(j, k)]] = 1.0
    return d


def _random_world(seed, boxes=4):
    rng = np.random.default_rng(4000 + seed)
    prims = []
    for _ in range(boxes):
        c = rng.uniform(0.15, 0.85, 2)
        h = rng.uniform(0.03, 0.12, 2)
        prims.append(lp.ObstaclePrimitive.box(np.clip(c - h, 0, 1),
                                              np.clip(c + h, 0, 1), known=True))
    target = rng.uniform(0.1, 0.9, 2)
    lat = fpe.Lattice.build(_env(prims), rng.uniform(0.0, 0.1, 2), 0.1, target)
    return rng, lat, target


def test_gradient_region_equals_solver_on_containment_scenes():
    for name, prims, start, target in containment_scenes():
        lat = fpe.Lattice.build(_env(prims), start, 0.05, target)
        s = lat.node_at(start)
        assert fpe.gradient_region(s, lat) == _solver_sweep(s, lat), name


def test_gradient_region_equals_solver_on_random_worlds():
    for seed in range(12):
        rng, lat, _ = _random_world(seed)
        for s in rng.choice(lat.size, 3, replace=False).tolist():
            assert fpe.gradient_region(s, lat) == _solver_sweep(s, lat), \
                f"seed {seed}, start {s}"


def test_gradient_weights_equal_node_loop():
    lats = []
    for name, prims, start, target in containment_scenes():
        lats.append((fpe.Lattice.build(_env(prims), start, 0.05, target), target))
    for seed in range(12):
        _, lat, target = _random_world(seed)
        lats.append((lat, target))
    lat, _, target, _ = _mirror_scene()
    lats.append((lat, target))
    truth = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], [
        lp.ObstaclePrimitive.box([0.45, 0, 0], [0.48, 0.55, 1], known=True)])
    env3 = lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()
    target3 = [0.85, 0.35, 0.35]
    lats.append((fpe.Lattice.build(env3, [0.1, 0.35, 0.35], 0.125, target3), target3))
    for lat, target in lats:
        assert np.array_equal(fpe.gradient_weights(lat), _loop_gradient_weights(lat, target))


def _loop_lattice(env, anchor, dx):
    """Grid points and up-edges tested one at a time: the loop Lattice.build
    replaces.  Returns coords, key_map, edges and neighbors."""
    anchor = np.asarray(anchor, dtype=float)
    n = anchor.shape[0]
    lo = np.tile(env.bounds_lo, n // env.dim)
    hi = np.tile(env.bounds_hi, n // env.dim)
    kmin = np.ceil((lo - anchor) / dx - 1e-9).astype(int)
    kmax = np.floor((hi - anchor) / dx + 1e-9).astype(int)
    coords, key_map = [], {}
    for key in itertools.product(*(range(a, b + 1) for a, b in zip(kmin, kmax))):
        x = anchor + dx * np.array(key)
        if oracle_point_feasible(x, env):
            key_map[key] = len(coords)
            coords.append(x)
    edges, neighbors = [], [[] for _ in coords]
    for key, j in key_map.items():
        for axis in range(n):
            k = key_map.get(key[:axis] + (key[axis] + 1,) + key[axis + 1:])
            if k is not None and oracle_segment_feasible(coords[j], coords[k], env):
                edges.append([j, k])
                neighbors[j].append(k)
                neighbors[k].append(j)
    return np.array(coords), key_map, edges, [sorted(ns) for ns in neighbors]


def test_lattice_build_equals_point_and_edge_loop():
    worlds = [(_env(prims), start, 0.05, target)
              for _, prims, start, target in containment_scenes()]
    slab = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], [
        lp.ObstaclePrimitive.box([0.45, 0, 0], [0.48, 0.55, 1], known=True)])
    worlds.append((lp.KnownEnvironment.initial(slab, 0.1).fully_revealed(),
                   [0.1, 0.35, 0.35], 0.125, [0.85, 0.35, 0.35]))
    # Two robots on a line: a node is a pair of positions, an edge moves one.
    line = lp.GroundTruth.create(1, [0], [1], [
        lp.ObstaclePrimitive.box([0.4], [0.55], known=True)])
    worlds.append((lp.KnownEnvironment.initial(line, 0.1).fully_revealed(),
                   [0.1, 0.8], 0.05, [0.8, 0.1]))
    for env, start, dx, target in worlds:
        lat = fpe.Lattice.build(env, start, dx, target)
        coords, key_map, edges, neighbors = _loop_lattice(env, start, dx)
        assert np.array_equal(lat.coords, coords)
        assert list(lat.key_map.items()) == list(key_map.items())
        assert lat.edges.tolist() == edges
        assert lat.neighbors == neighbors
        assert lat.p.tolist() == [distance(x, target) for x in coords]


def test_gibbs_steady_equals_solver_on_random_worlds():
    for seed in range(3):
        _, lat, _ = _random_world(seed)
        beta = float(lat.p.max() - lat.p.min()) / 10.0
        res = fpe.evolve_to_steady(fpe.DensityField.uniform(lat, beta), lat,
                                   fpe.diffusion_weights(lat), tol=1e-11)
        assert res.converged
        assert np.max(np.abs(fpe.gibbs_steady(lat, beta) - res.field.rho)) <= 1e-9


def test_gibbs_steady_weights_components_by_size():
    # A wall splits the lattice into 3 and 7 columns: each side keeps its
    # share of the uniform mass, spread as a Gibbs density within the side.
    env = _env([lp.ObstaclePrimitive.box([0.27, 0.0], [0.33, 1.0], known=True)])
    lat = fpe.Lattice.build(env, [0.05, 0.05], 0.1, [0.75, 0.45])
    labels = lat.component_labels()
    assert sorted(np.bincount(labels)) == [30, 70]
    beta = 0.08
    rho = fpe.gibbs_steady(lat, beta)
    res = fpe.evolve_to_steady(fpe.DensityField.uniform(lat, beta), lat,
                               fpe.diffusion_weights(lat), tol=1e-11)
    assert res.converged
    assert np.max(np.abs(rho - res.field.rho)) <= 1e-9
    for c in (0, 1):
        side = labels == c
        assert rho[side].sum() == pytest.approx(side.sum() / lat.size, abs=1e-12)


def _mirror_scene():
    # Every lattice coordinate is a multiple of 1/16, so the potential is
    # exactly symmetric about y = 1/2 and mirrored nodes tie in the Gibbs
    # density.
    wall = lp.ObstaclePrimitive.box([0.47, 0.3], [0.53, 0.7], known=True)
    start, target = [0.125, 0.5], [0.875, 0.5]
    lat = fpe.Lattice.build(_env([wall]), start, 0.0625, target)
    mirror = {i: lat.node_at([x, 1.0 - y]) for i, (x, y) in enumerate(lat.coords)}
    return lat, start, target, mirror


def test_mirror_scene_ties_go_to_the_lower_index():
    lat, start, target, mirror = _mirror_scene()
    rho = fpe.gibbs_steady(lat, 0.1)
    assert all(rho[i] == rho[j] for i, j in mirror.items())
    first = fpe.build_region(start, target, lat)
    again = fpe.build_region(start, target, lat)
    assert first.nodes == again.nodes
    claimed = set(first.nodes)
    lone = [i for i in claimed if mirror[i] not in claimed]
    assert lone, "the wall must break the symmetry of the region"
    # Each tie went to the lower index: the nodes claimed without their
    # mirror image all lie below the axis, where indices are lower.
    assert all(lat.coords[i][1] < 0.5 and i < mirror[i] for i in lone)


def _region_scene_inputs(seed):
    """The region-scenes inputs of the benchmark's pass for `seed`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenes", path)
    scenes = sys.modules.setdefault("perfbench_scenes", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(scenes)  # its dataclasses look their module up
    return scenes.pass_inputs("region-scenes", seed)


def _regions_with_trajectories():
    """(region, planned trajectory) on the containment scenes and on the
    benchmark's region scenes, 2-D and 3-D."""
    for _, prims, start, target in containment_scenes():
        truth = lp.GroundTruth.create(2, [0, 0], [1, 1], prims)
        yield truth, np.array(start), np.array(target), 0.05
    for inp in _region_scene_inputs(0):
        prims = [lp.ObstaclePrimitive.box(lo, hi, known=True) for lo, hi in inp.boxes]
        truth = lp.GroundTruth.create(inp.dim, np.zeros(inp.dim), np.ones(inp.dim), prims)
        yield truth, inp.start, inp.target, inp.step


def test_contains_path_equals_per_sample_contains():
    """The one-pass containment test equals `region_contains` per sample: on
    planned trajectories, on random points, and on points at exactly the
    half-width plus tolerance from a claimed node along one axis, or one ulp
    beyond it."""
    rng = np.random.default_rng(3)
    regions = in_box = edge_in = edge_out = 0
    for truth, start, target, step in _regions_with_trajectories():
        res = lp.plan(truth, start, target, lp.PlannerConfig(step=step, sensing_radius=0.12,
                                                          max_vertices=200))
        assert res.status == "success"
        env = lp.KnownEnvironment.initial(truth, 0.12).fully_revealed()
        lat = fpe.Lattice.build(env, start, step, target)
        region = fpe.build_region(start, target, lat)
        traj = res.full_trajectory
        assert fpe.contains_path(region, traj) == all(region_contains(region, x) for x in traj)
        n = start.shape[0]
        nodes = lat.coords[list(region.nodes)]
        reach = region.half_width + 1e-9
        samples = list(rng.uniform(-0.05, 1.05, (200, n)))
        for c in nodes[rng.choice(len(nodes), min(len(nodes), 10), replace=False)]:
            for axis in range(n):
                for sign in (1.0, -1.0):
                    x = c.copy()
                    x[axis] = c[axis] + sign * reach
                    samples.append(x)
                    y = x.copy()
                    y[axis] = np.nextafter(x[axis], sign * np.inf)
                    samples.append(y)
        for x in samples:
            want = region_contains(region, x)
            assert fpe.contains_path(region, [x]) == want, x
            in_box += want
        on_edge = [region_contains(region, x) for x in samples[200:]]
        edge_in += sum(on_edge[0::2])
        edge_out += len(on_edge[1::2]) - sum(on_edge[1::2])
        regions += 1
        # A path is contained iff each of its samples is.
        path = samples[:20]
        assert fpe.contains_path(region, path) == all(region_contains(region, x) for x in path)
        assert fpe.contains_path(region, list(traj) + [samples[-1]]) == region_contains(
            region, samples[-1])
    assert regions == 25 and in_box > 0 and edge_in > 0 and edge_out > 0
    assert fpe.contains_path(region, [])
    # Paths longer than one pass: inside, and with one sample outside the
    # region in the third pass.
    near = nodes[rng.integers(0, len(nodes), 1300)]
    path = list(near + rng.uniform(-0.5, 0.5, near.shape) * region.half_width)
    assert fpe.contains_path(region, path) and all(region_contains(region, x) for x in path)
    path[1200] = path[1200] + 3.0
    assert not region_contains(region, path[1200]) and not fpe.contains_path(region, path)
