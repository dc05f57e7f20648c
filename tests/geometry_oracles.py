"""The scalar reference for every feasibility test: one box, one robot pair
and one sample at a time, in Python loops.

The program answers these tests with the batched kernels of
`latticeplan.geometry`, `graph.admit_rows`, `trap_escape._first_open` and
`fpe.contains_path`; the tests compare them with the functions below.
Boxes come from `env.truth.primitives` by revealed index, not from the
environment's cached corner arrays, and a point-in-box or point-to-box test
is the body of the one-box obstacle type.  A move's lattice key is rounded
from its coordinates and written digit by digit in the tree's radix.
"""

import functools
import itertools

import numpy as np

from latticeplan.geometry import as_config, distance


def segment_hits_box(a, b, lo, hi) -> bool:
    """True iff segment [a, b] intersects the OPEN box (lo, hi).

    Grazing a face or an edge (boundary contact only) does not count.
    """
    return _hits(*(np.asarray(v, dtype=float).tolist() for v in (a, b, lo, hi)))


def _hits(a, b, lo, hi) -> bool:
    """`segment_hits_box` on lists of Python floats, which round every
    operation as float64 does."""
    t0, t1 = 0.0, 1.0
    for ai, bi, l, h in zip(a, b, lo, hi):
        d = bi - ai
        if d == 0.0:
            if not (l < ai < h):
                return False
        else:
            ta = (l - ai) / d
            tb = (h - ai) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1:
                return False
    return t1 > t0


def pair_band_over_motion(pa, pb, qa, qb, dmin: float, dmax: float) -> bool:
    """Distance between two linearly moving points stays in [dmin, dmax].

    The squared distance is a convex quadratic in t, so the max is attained
    at an endpoint and the min at the clamped vertex.
    """
    r0 = pa - qa
    r1 = pb - qb
    dr = r1 - r0
    if float(np.linalg.norm(r0)) > dmax or float(np.linalg.norm(r1)) > dmax:
        return False
    denom = float(np.dot(dr, dr))
    if denom > 0.0:
        t = float(np.clip(-np.dot(r0, dr) / denom, 0.0, 1.0))
    else:
        t = 0.0
    return float(np.linalg.norm(r0 + t * dr)) >= dmin


def _distance_to(lo, hi, p) -> float:
    d = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return float(np.linalg.norm(d))


def _revealed_boxes(env):
    return [env.truth.primitives[i] for i in sorted(env.revealed)]


@functools.lru_cache(maxsize=64)
def _box_lists(env):
    """The revealed boxes as (lo, hi) lists of floats, by revealed index."""
    return [(b.lo.tolist(), b.hi.tolist()) for b in _revealed_boxes(env)]


def _robots(x, env):
    return list(np.asarray(x, dtype=float).reshape(-1, env.dim))


def _link_hits(p, q, env) -> bool:
    p, q = p.tolist(), q.tolist()
    return any(_hits(p, q, lo, hi) for lo, hi in _box_lists(env))


def oracle_point_feasible(x, env) -> bool:
    """Every robot in bounds and outside every revealed box."""
    bounds_lo, bounds_hi = env.bounds_lo.tolist(), env.bounds_hi.tolist()
    for pos in np.asarray(x, dtype=float).reshape(-1, env.dim).tolist():
        if any(v < l or v > h for l, v, h in zip(bounds_lo, pos, bounds_hi)):
            return False
        if any(all(l < v < h for l, v, h in zip(lo, pos, hi)) for lo, hi in _box_lists(env)):
            return False
    return True


def oracle_segment_feasible(a, b, env) -> bool:
    """No robot's straight segment from a to b crosses a revealed box."""
    return not any(_link_hits(ra, rb, env) for ra, rb in zip(_robots(a, env), _robots(b, env)))


def oracle_multi_robot_feasible(x, env, dmin, dmax) -> bool:
    """Every pair's distance in [dmin, dmax] and its link clear of the boxes."""
    pos = _robots(x, env)
    for i, j in itertools.combinations(range(len(pos)), 2):
        d = float(np.linalg.norm(pos[i] - pos[j]))
        if d < dmin or d > dmax or _link_hits(pos[i], pos[j], env):
            return False
    return True


def oracle_formation_motion_feasible(a, b, env, dmin, dmax, link_step) -> bool:
    """The formation terms of moving from a to b: every pair's band held
    along the whole motion, and every link clear of the boxes at samples
    t = s / steps, steps = max(ceil(|b - a| / link_step), 1)."""
    pa, pb = _robots(a, env), _robots(b, env)
    pairs = list(itertools.combinations(range(len(pa)), 2))
    if not all(pair_band_over_motion(pa[i], pb[i], pa[j], pb[j], dmin, dmax) for i, j in pairs):
        return False
    steps = max(int(np.ceil(distance(a, b) / link_step)), 1)
    for s in range(steps + 1):
        t = s / steps
        pos = [p + t * (q - p) for p, q in zip(pa, pb)]
        if any(_link_hits(pos[i], pos[j], env) for i, j in pairs):
            return False
    return True


def oracle_formation_segment_feasible(a, b, env, dmin, dmax, link_step) -> bool:
    """The whole move test `formation_segment_feasible` and
    `rows_formation_feasible` answer: every robot's segment and, with a band,
    the band and links at b and the formation terms of the motion."""
    if not oracle_segment_feasible(a, b, env):
        return False
    return dmin is None or dmax is None or (
        oracle_multi_robot_feasible(b, env, dmin, dmax)
        and oracle_formation_motion_feasible(a, b, env, dmin, dmax, link_step))


class LatticeConsistencyError(ValueError):
    """A configuration is too far from any lattice point to key reliably."""


def lattice_coords(x, g):
    """Integer lattice coordinates of x relative to the graph anchor, rounded
    from its floats.

    Raises when any component is farther than a quarter step from the
    nearest lattice multiple (the point was not generated by +-step moves).
    """
    rel = (as_config(x) - g.anchor) / g.step
    rounded = np.rint(rel)
    if np.any(np.abs(rel - rounded) > 0.25):
        raise LatticeConsistencyError(
            f"configuration {x} is off-lattice for anchor {g.anchor}, step {g.step}")
    return tuple(int(v) for v in rounded)


def encode_key(k, radix) -> int:
    """The integer key of lattice coordinates k, the digits of `radix` from
    the last coordinate down; each must lie within radix // 2 of zero."""
    key = 0
    for d in reversed(k):
        if abs(d) > radix // 2:
            raise LatticeConsistencyError(f"lattice coordinate {d} overflows radix {radix}")
        key = key * radix + d
    return key


def decode_key(key, radix, n):
    """The n lattice coordinates whose `encode_key` is key."""
    k = []
    for _ in range(n):
        d = key % radix
        d -= radix if d > radix // 2 else 0
        k.append(d)
        key = (key - d) // radix
    if key:
        raise LatticeConsistencyError(f"key has more than {n} digits")
    return tuple(k)


def lattice_key(x, g) -> int:
    """The tree's key of x, rounded from its floats: the oracle for the keys
    the tree derives from parents."""
    return encode_key(lattice_coords(x, g), g.radix)


def oracle_candidate_open(g, q, env) -> bool:
    """Point-level admission of q: unvisited rounded key, in bounds, outside
    the revealed boxes and, for a formation, inside the distance band."""
    if lattice_key(q, g) in g.key_map or not oracle_point_feasible(q, env):
        return False
    dmin, dmax = env.truth.dmin, env.truth.dmax
    return dmin is None or dmax is None or oracle_multi_robot_feasible(q, env, dmin, dmax)


def oracle_candidate_admissible(g, from_id, q, env, cfg) -> bool:
    """Admission of the lattice move from vertex from_id to q."""
    return oracle_candidate_open(g, q, env) and oracle_formation_segment_feasible(
        g.coords[from_id], q, env, env.truth.dmin, env.truth.dmax, cfg.link_step)


def oracle_sense(known, x) -> frozenset:
    """The revealed set after sensing at x."""
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
    """The first blocked motion and the revealed boxes, by row, that block it."""
    for j, (a, b) in enumerate(zip(samples, samples[1:])):
        pb = _robots(b, known)
        links = [(pb[i], pb[m]) for i, m in itertools.combinations(range(len(pb)), 2)]
        segments = [(s.tolist(), e.tolist())
                    for s, e in list(zip(_robots(a, known), pb)) + links]
        rows = [r for r, (lo, hi) in enumerate(_box_lists(known))
                if any(_hits(s, e, lo, hi) for s, e in segments)]
        if rows:
            return j, rows
    return None, []


def region_contains(region, x, tol: float = 1e-9) -> bool:
    """x lies in the closed box of half-width `region.half_width` (plus tol)
    around some claimed node: one node at a time, over the 3**n lattice keys
    around x's cell corner.  Each claimed node's key is rounded from its
    coordinates, not read from the lattice's index grid."""
    x = np.asarray(x, dtype=float)
    lat = region.lattice
    keys = np.rint((lat.coords[list(region.nodes)] - lat.anchor) / lat.dx).astype(int)
    claimed = dict(zip(map(tuple, keys.tolist()), region.nodes))
    base = np.floor((x - lat.anchor) / lat.dx).astype(int).tolist()
    for off in itertools.product((0, 1, -1), repeat=len(base)):
        idx = claimed.get(tuple(b + o for b, o in zip(base, off)))
        if idx is not None and np.max(np.abs(lat.coords[idx] - x)) <= region.half_width + tol:
            return True
    return False
