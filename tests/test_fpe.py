"""Density-flow solver: CFL bound, conservation, Gibbs limits, regions.

The region is built from closed forms of the flow's limits; the explicit
solver is the oracle they are compared with here.
"""

import itertools

import numpy as np
import pytest

import latticeplan as lp
from latticeplan import fpe
from latticeplan.errors import CflViolationError, RegionError
from latticeplan.geometry import point_feasible, segment_feasible

from conftest import containment_scenes


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


def test_gradient_weights_pick_steepest_axis():
    env = _env()
    lat = fpe.Lattice.build(env, [0.0, 0.0], 0.1, [0.9, 0.2])
    w = fpe.gradient_weights(lat, lp.PotentialField(target=np.array([0.9, 0.2])))
    # At (0.1, 0.2) the gradient points along -x only: the +x edge must carry
    # weight 1 and the downhill y edge weight 0.
    j = lat.node_at([0.1, 0.2])
    k = lat.node_at([0.2, 0.2])
    e = [i for i, (a, b) in enumerate(lat.edges)
         if {int(a), int(b)} == {j, k}][0]
    assert w.d[e] == 1.0


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
    nodes = fpe.gradient_region(lat.node_at([0.1, 0.5]), lat,
                                lp.PotentialField(target=np.array([0.9, 0.5])))
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
    assert not region.contains([0.5, 0.62])


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
    pot = lp.PotentialField(target=np.array([0.9, 0.4]))
    prev = fpe.gradient_region(lat.node_at([0.1, 0.4]), lat, pot)
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

def _solver_sweep(start_node, lat, pot):
    """The descent sweep as the solver computes it: evolve a unit mass from
    the start node at beta = 0 under the descent weights and collect every
    node whose density ever strictly increases."""
    touched = {start_node}
    fpe.evolve_to_steady(fpe.DensityField.delta(lat, start_node), lat,
                         fpe.gradient_weights(lat, pot), tol=1e-12,
                         touched_threshold=1e-14, touched=touched)
    return touched


def _loop_gradient_weights(lat, pot=None):
    """Node-by-node descent weights: the slow path gradient_weights replaces."""
    d = np.zeros(lat.edges.shape[0])
    edge_index = {}
    for e, (j, k) in enumerate(lat.edges.tolist()):
        edge_index[(j, k)] = edge_index[(k, j)] = e
    for j in range(lat.size):
        lower = [k for k in lat.neighbors[j] if lat.p[k] < lat.p[j]]
        if not lower:
            continue
        grad = None if pot is None else pot.gradient(lat.coords[j])
        vals = [float(lat.p[j] - lat.p[k]) if grad is None
                else float(np.dot(lat.coords[j] - lat.coords[k], grad))
                for k in lower]
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
    return rng, lat, lp.PotentialField(target=target)


def test_gradient_region_equals_solver_on_containment_scenes():
    for name, prims, start, target in containment_scenes():
        lat = fpe.Lattice.build(_env(prims), start, 0.05, target)
        pot = lp.PotentialField(target=np.asarray(target, dtype=float))
        s = lat.node_at(start)
        assert fpe.gradient_region(s, lat, pot) == _solver_sweep(s, lat, pot), name


def test_gradient_region_equals_solver_on_random_worlds():
    for seed in range(12):
        rng, lat, pot = _random_world(seed)
        for s in rng.choice(lat.size, 3, replace=False).tolist():
            assert fpe.gradient_region(s, lat, pot) == \
                _solver_sweep(s, lat, pot), f"seed {seed}, start {s}"


def test_gradient_weights_equal_node_loop():
    lats = []
    for name, prims, start, target in containment_scenes():
        lats.append((fpe.Lattice.build(_env(prims), start, 0.05, target),
                     lp.PotentialField(target=np.asarray(target, dtype=float))))
    for seed in range(12):
        _, lat, pot = _random_world(seed)
        lats.append((lat, pot))
    lat, _, target, _ = _mirror_scene()
    lats.append((lat, lp.PotentialField(target=np.asarray(target))))
    truth = lp.GroundTruth.create(3, [0, 0, 0], [1, 1, 1], [
        lp.ObstaclePrimitive.box([0.45, 0, 0], [0.48, 0.55, 1], known=True)])
    env3 = lp.KnownEnvironment.initial(truth, 0.1).fully_revealed()
    target3 = np.array([0.85, 0.35, 0.35])
    lats.append((fpe.Lattice.build(env3, [0.1, 0.35, 0.35], 0.125, target3),
                 lp.PotentialField(target=target3)))
    for lat, pot in lats:
        assert np.array_equal(fpe.gradient_weights(lat, pot).d,
                              _loop_gradient_weights(lat, pot))
        assert np.array_equal(fpe.gradient_weights(lat).d,
                              _loop_gradient_weights(lat))


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
        if point_feasible(x, env):
            key_map[key] = len(coords)
            coords.append(x)
    edges, neighbors = [], [[] for _ in coords]
    for key, j in key_map.items():
        for axis in range(n):
            k = key_map.get(key[:axis] + (key[axis] + 1,) + key[axis + 1:])
            if k is not None and segment_feasible(coords[j], coords[k], env):
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
